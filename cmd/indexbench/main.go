// Command indexbench runs one benchmark configuration against the
// B+-tree or ART and reports throughput, the lock-event counters, the
// throughput timeline and, with -latency, sampled per-operation
// latency percentiles. The paper's figures and tables are regenerated
// by cmd/experiments instead.
//
// Examples:
//
//	indexbench -index art -scheme OptiQL -mix balanced -dist selfsimilar -sparse
//	indexbench -latency -index btree -scheme OptiQL -threads 8 -json -
//	indexbench -duration 60s -obs :6060
//
// With -net it turns into a load generator for a running optiqld
// server, driving the same mixes and distributions through pipelined
// protocol connections (one per thread):
//
//	indexbench -net 127.0.0.1:4440 -threads 8 -mix balanced -duration 5s -json -
//
// With -json - the report is the only thing written to stdout;
// informational lines (the -obs address, the -trace path) go to
// stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"optiql/internal/bench"
	"optiql/internal/experiments"
	"optiql/internal/faults"
	"optiql/internal/hist"
	"optiql/internal/obs"
	"optiql/internal/obs/trace"
	"optiql/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "indexbench:", err)
		os.Exit(1)
	}
}

// run is the command with its arguments and output streams as
// parameters. Flag errors exit the process, as with the flag package's
// default command line.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("indexbench", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		threads  = fs.String("threads", "8", "worker threads (-net: connections); of a comma-separated list, the last entry is used")
		duration = fs.Duration("duration", 500*time.Millisecond, "measured duration")
		records  = fs.Int("records", 200_000, "records preloaded (paper: 100000000)")

		index    = fs.String("index", "btree", "btree|art")
		scheme   = fs.String("scheme", "OptiQL", "lock scheme")
		mixName  = fs.String("mix", "balanced", "read-only|read-heavy|balanced|write-heavy|update-only")
		dist     = fs.String("dist", "selfsimilar", "uniform|selfsimilar|zipf")
		skew     = fs.Float64("skew", 0.2, "self-similar skew factor / zipf theta")
		sparseK  = fs.Bool("sparse", false, "use sparse integer keys")
		nodeSize = fs.Int("nodesize", 256, "B+-tree node size in bytes")
		noexpand = fs.Bool("noexpand", false, "disable ART contention expansion (ablation)")

		jsonPath = fs.String("json", "", "write a machine-readable run report to this path (\"-\" = stdout)")
		obsAddr  = fs.String("obs", "", "serve live /metrics, /debug/vars, /debug/pprof and /debug/contention on this address (e.g. :6060)")
		latency  = fs.Bool("latency", false, "collect sampled per-operation latencies")

		tracePath = fs.String("trace", "", "write a Chrome trace_event JSON (load in Perfetto / chrome://tracing) to this path after the run")
		traceSmp  = fs.Int("sample", 0, "trace sampling interval, 1-in-N ops (0 = default 1024 when tracing; also enables the report's contention sections without -trace)")

		netAddr   = fs.String("net", "", "drive a running optiqld server at this address instead of an in-process index")
		pipeline  = fs.Int("pipeline", 32, "per-connection pipelining window for -net runs")
		noPreload = fs.Bool("nopreload", false, "skip the -net preload phase (server already populated)")
		chaos     = fs.String("chaos", "", "client-side fault-injection spec for -net runs, e.g. 'reset=0.01,latency=0.05:100us-1ms' (implies -reconn)")
		reconn    = fs.Bool("reconn", false, "drive -net runs with self-healing synchronous clients (retry/backoff/reconnect) instead of raw pipelined connections")
		retries   = fs.Int("retries", 0, "per-request retry budget for -reconn/-chaos runs (0 = client default)")
	)
	fs.Parse(args)

	ths, err := experiments.ParseThreads(*threads)
	if err != nil {
		return err
	}
	mix, err := workload.MixByName(*mixName)
	if err != nil {
		return err
	}
	ks := workload.Dense
	if *sparseK {
		ks = workload.Sparse
	}
	var tracer *trace.Tracer
	if *tracePath != "" || *traceSmp > 0 {
		tracer = trace.New(trace.Config{SampleEvery: *traceSmp})
	}
	if *netAddr != "" {
		var chaosCfg *faults.Config
		if *chaos != "" {
			cfg, err := faults.Parse(*chaos)
			if err != nil {
				return err
			}
			chaosCfg = &cfg
		}
		err := runNet(bench.NetConfig{
			Addr:         *netAddr,
			Conns:        ths[len(ths)-1],
			Pipeline:     *pipeline,
			Records:      *records,
			SkipPreload:  *noPreload,
			Distribution: *dist,
			Skew:         *skew,
			KeySpace:     ks,
			Mix:          mix,
			Duration:     *duration,
			Latency:      *latency,
			Chaos:        chaosCfg,
			Reconn:       *reconn,
			MaxRetries:   *retries,
			Trace:        tracer,
		}, *jsonPath, *obsAddr, *mixName, stdout, stderr)
		if err != nil {
			return err
		}
		return writeTrace(tracer, *tracePath, stderr)
	}
	cfg := bench.IndexConfig{
		Index:               *index,
		Scheme:              *scheme,
		Threads:             ths[len(ths)-1],
		Records:             *records,
		NodeSize:            *nodeSize,
		Distribution:        *dist,
		Skew:                *skew,
		KeySpace:            ks,
		Mix:                 mix,
		Duration:            *duration,
		Latency:             *latency,
		ARTDisableExpansion: *noexpand,
		Trace:               tracer,
	}
	if *obsAddr != "" {
		src := &obs.LiveSource{}
		cfg.Live = src
		srv, bound, err := obs.Serve(*obsAddr, src)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "observability endpoint on http://%s/metrics\n", bound)
	}
	res, err := bench.RunIndex(cfg)
	if err != nil {
		return err
	}
	if err := writeTrace(tracer, *tracePath, stderr); err != nil {
		return err
	}
	if *jsonPath != "" {
		if err := writeReport(res.Report("indexbench"), *jsonPath, stdout); err != nil {
			return err
		}
		if *jsonPath == "-" {
			return nil
		}
	}
	fmt.Fprintf(stdout, "index=%s scheme=%s threads=%d records=%d dist=%s keys=%s mix=%s\n",
		*index, *scheme, cfg.Threads, *records, *dist, ks, *mixName)
	fmt.Fprintf(stdout, "throughput: %.3f Mops (%d ops in %v)\n", res.Mops(), res.Ops, res.Elapsed.Round(time.Millisecond))
	for op, n := range res.PerOp {
		if n > 0 {
			fmt.Fprintf(stdout, "  %s: %d\n", workload.OpKind(op), n)
		}
	}
	if res.Expansions > 0 {
		fmt.Fprintf(stdout, "  contention expansions: %d\n", res.Expansions)
	}
	if res.Obs != nil {
		fmt.Fprintf(stdout, "  lock events: %d validation failures, %d restarts, %d free / %d handover acquires\n",
			res.Obs.Get(obs.EvShValidateFail), res.Obs.Get(obs.EvOpRestart),
			res.Obs.Get(obs.EvExFree), res.Obs.Get(obs.EvExHandover))
	}
	if min, avg, stddev := res.Timeline.Stats(); avg > 0 {
		fmt.Fprintf(stdout, "  timeline: min %.3f / avg %.3f / stddev %.3f Mops over %d intervals\n",
			min, avg, stddev, len(res.Timeline.Ops))
	}
	if res.Hist != nil {
		snap := res.Hist.Snapshot()
		fmt.Fprint(stdout, "  latency:")
		for i, l := range hist.PercentileLabels {
			fmt.Fprintf(stdout, " %s=%v", l, time.Duration(snap[i]))
		}
		fmt.Fprintln(stdout)
	}
	printContention(tracer, stdout)
	return nil
}

// writeReport writes rep to path, or to stdout when path is "-".
func writeReport(rep *obs.Report, path string, stdout io.Writer) error {
	if path == "-" {
		return rep.Encode(stdout)
	}
	return rep.WriteFile(path)
}

// writeTrace exports the run's spans in Chrome trace_event format.
func writeTrace(tr *trace.Tracer, path string, stderr io.Writer) error {
	if tr == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "trace written to %s (load in Perfetto or chrome://tracing)\n", path)
	return nil
}

// printContention summarizes the profiler's view of the run: lock-wait
// percentiles and the hottest keys.
func printContention(tr *trace.Tracer, w io.Writer) {
	if tr == nil {
		return
	}
	snap := tr.Snapshot()
	if snap.Wait.Count() > 0 {
		fmt.Fprintf(w, "  lock wait (1-in-%d sampled): p50 %v / p99 %v / max %v over %d acquires\n",
			snap.SampleEvery,
			time.Duration(snap.Wait.Percentile(50)), time.Duration(snap.Wait.Percentile(99)),
			time.Duration(snap.Wait.Max()), snap.Wait.Count())
	}
	if len(snap.Keys) > 0 {
		n := len(snap.Keys)
		if n > 5 {
			n = 5
		}
		fmt.Fprintf(w, "  hot keys:")
		for _, it := range snap.Keys[:n] {
			fmt.Fprintf(w, " %#x(%d)", it.Key, it.Count)
		}
		fmt.Fprintln(w)
	}
}

// runNet drives a remote optiqld server with the configured workload
// and prints/writes the same shape of results as an in-process run.
func runNet(cfg bench.NetConfig, jsonPath, obsAddr, mixName string, stdout, stderr io.Writer) error {
	if obsAddr != "" {
		src := &obs.LiveSource{}
		cfg.Live = src
		if tr := cfg.Trace; tr != nil {
			src.SetContention(func() *obs.ContentionReport { return obs.ContentionFrom(tr, nil) })
		}
		srv, bound, err := obs.Serve(obsAddr, src)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "observability endpoint on http://%s/metrics\n", bound)
	}
	res, err := bench.RunNet(cfg)
	if err != nil {
		return err
	}
	if jsonPath != "" {
		if err := writeReport(res.Report("indexbench-net"), jsonPath, stdout); err != nil {
			return err
		}
		if jsonPath == "-" {
			return nil
		}
	}
	fmt.Fprintf(stdout, "net=%s conns=%d pipeline=%d records=%d dist=%s keys=%s mix=%s\n",
		cfg.Addr, cfg.Conns, cfg.Pipeline, cfg.Records, cfg.Distribution, cfg.KeySpace, mixName)
	fmt.Fprintf(stdout, "throughput: %.3f Mops (%d ops in %v, %d errors)\n",
		res.Mops(), res.Ops, res.Elapsed.Round(time.Millisecond), res.Errors)
	for op, n := range res.PerOp {
		if n > 0 {
			fmt.Fprintf(stdout, "  %s: %d (%d misses)\n", workload.OpKind(op), n, res.PerOpMiss[op])
		}
	}
	if rs := res.Reconn; rs.Dials > 0 {
		fmt.Fprintf(stdout, "  resilience: %d dials (%d reconnects), %d retries, %d overload answers, %d failures\n",
			rs.Dials, rs.Reconnects, rs.Retries, rs.Overloaded, rs.Failures)
	}
	if n := res.Counters["fault_latency"] + res.Counters["fault_stall"] + res.Counters["fault_short_write"] +
		res.Counters["fault_fragment"] + res.Counters["fault_reset"] + res.Counters["fault_corrupt"] +
		res.Counters["fault_accept_fail"]; n > 0 {
		fmt.Fprintf(stdout, "  faults injected client-side: %d\n", n)
	}
	if min, avg, stddev := res.Timeline.Stats(); avg > 0 {
		fmt.Fprintf(stdout, "  timeline: min %.3f / avg %.3f / stddev %.3f Mops over %d intervals\n",
			min, avg, stddev, len(res.Timeline.Ops))
	}
	return nil
}
