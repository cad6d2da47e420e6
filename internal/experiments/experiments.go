// Package experiments regenerates every table and figure of the
// OptiQL paper's evaluation (Section 7). Each function prints the same
// rows/series the paper reports, as plain text tables; cmd/experiments
// runs them by name (ByName).
//
// Scale knobs (thread counts, run duration, repetitions, record
// counts) default to laptop/CI-friendly values; pass the paper's
// values (80 threads, 10-second runs, 20 repetitions, 100M records) to
// reproduce at full scale on suitable hardware. See DESIGN.md for the
// environment substitutions and EXPERIMENTS.md for measured results.
package experiments

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"optiql/internal/bench"
	"optiql/internal/hist"
	"optiql/internal/workload"
)

// Options control experiment scale.
type Options struct {
	// Threads is the sweep used by throughput-vs-threads figures.
	Threads []int
	// MaxThreads is the fixed thread count for single-point figures
	// (Figures 7, 8, 11 and Table 1).
	MaxThreads int
	// Duration per measured run.
	Duration time.Duration
	// Runs per configuration; results are reported as mean ± 95% CI.
	Runs int
	// Records preloaded into indexes.
	Records int
	// SimCycles is the simulated duration for the sim* experiments
	// (default 2,000,000 cycles).
	SimCycles uint64
	// Out receives the report (default os.Stdout).
	Out io.Writer
}

func (o Options) filled() Options {
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8}
	}
	if o.MaxThreads == 0 {
		o.MaxThreads = o.Threads[len(o.Threads)-1]
	}
	if o.Duration == 0 {
		o.Duration = 500 * time.Millisecond
	}
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.Records == 0 {
		o.Records = 200_000
	}
	if o.SimCycles == 0 {
		o.SimCycles = 2_000_000
	}
	if o.Out == nil {
		o.Out = os.Stdout
	}
	return o
}

func header(w io.Writer, title, detail string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	if detail != "" {
		fmt.Fprintf(w, "%s\n", detail)
	}
}

// microCell runs one microbenchmark point Runs times and renders
// "mean±ci" Mops.
func microCell(o Options, cfg bench.MicroConfig) (string, error) {
	mean, ci, err := bench.Repeat(o.Runs, func() (float64, error) {
		r, err := bench.RunMicro(cfg)
		if err != nil {
			return 0, err
		}
		return r.Mops(), nil
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%.2f±%.2f", mean, ci), nil
}

// indexCell measures one index benchmark point against a preloaded
// index, Runs times.
func indexCell(o Options, cfg bench.IndexConfig) (string, error) {
	idx, pool, err := bench.BuildIndex(&cfg)
	if err != nil {
		return "", err
	}
	mean, ci, err := bench.Repeat(o.Runs, func() (float64, error) {
		r, err := bench.MeasureIndex(cfg, idx, pool)
		if err != nil {
			return 0, err
		}
		return r.Mops(), nil
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%.2f±%.2f", mean, ci), nil
}

// Fig1 reproduces Figure 1: B+-tree update-only throughput under low
// (uniform) and high (self-similar 0.2) contention, centralized
// optimistic lock vs OptiQL, across the thread sweep.
func Fig1(o Options) error {
	o = o.filled()
	header(o.Out, "Figure 1: B+-tree update throughput, OptLock vs OptiQL",
		fmt.Sprintf("update-only, dense keys, %d records; Mops (mean±95%%CI)", o.Records))
	for _, panel := range []struct {
		name, dist string
	}{
		{"(a) Low contention (uniform)", "uniform"},
		{"(b) High contention (self-similar 0.2)", "selfsimilar"},
	} {
		fmt.Fprintf(o.Out, "-- %s --\n", panel.name)
		tw := tabwriter.NewWriter(o.Out, 4, 4, 2, ' ', 0)
		fmt.Fprint(tw, "threads")
		for _, s := range []string{"OptLock", "OptiQL"} {
			fmt.Fprintf(tw, "\t%s", s)
		}
		fmt.Fprintln(tw)
		for _, th := range o.Threads {
			fmt.Fprintf(tw, "%d", th)
			for _, scheme := range []string{"OptLock", "OptiQL"} {
				cell, err := indexCell(o, bench.IndexConfig{
					Index: "btree", Scheme: scheme, Threads: th,
					Records: o.Records, Distribution: panel.dist,
					KeySpace: workload.Dense, Mix: workload.UpdateOnly,
					Duration: o.Duration,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "\t%s", cell)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	return nil
}

// Fig6 reproduces Figure 6: exclusive-lock microbenchmark throughput
// under the five contention levels for all seven lock variants.
func Fig6(o Options) error {
	o = o.filled()
	header(o.Out, "Figure 6: exclusive lock throughput by contention level",
		"pure-write microbenchmark, CS=50 increments; Mops (mean±95%CI)")
	schemes := []string{"OptLock", "OptiQL-NOR", "OptiQL", "pthread", "MCS-RW", "TTS", "MCS"}
	for _, level := range bench.ContentionLevels() {
		fmt.Fprintf(o.Out, "-- %s contention (%d locks) --\n", level.Name, level.Locks)
		tw := tabwriter.NewWriter(o.Out, 4, 4, 2, ' ', 0)
		fmt.Fprint(tw, "threads")
		for _, s := range schemes {
			fmt.Fprintf(tw, "\t%s", s)
		}
		fmt.Fprintln(tw)
		for _, th := range o.Threads {
			fmt.Fprintf(tw, "%d", th)
			for _, scheme := range schemes {
				cell, err := microCell(o, bench.MicroConfig{
					Scheme: scheme, Threads: th, Locks: level.Locks,
					Duration: o.Duration,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "\t%s", cell)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	return nil
}

// Fig7 reproduces Figure 7: microbenchmark throughput across read/write
// ratios at four contention levels, max threads, for the five
// reader-capable locks.
func Fig7(o Options) error {
	o = o.filled()
	header(o.Out, "Figure 7: lock throughput by read/write ratio",
		fmt.Sprintf("%d threads; Mops (mean±95%%CI)", o.MaxThreads))
	ratios := []int{0, 20, 50, 80, 90}
	schemes := []string{"OptLock", "OptiQL-NOR", "OptiQL", "pthread", "MCS-RW"}
	for _, level := range bench.ContentionLevels()[:4] { // extreme..low
		fmt.Fprintf(o.Out, "-- %s contention (%d locks) --\n", level.Name, level.Locks)
		tw := tabwriter.NewWriter(o.Out, 4, 4, 2, ' ', 0)
		fmt.Fprint(tw, "read/write")
		for _, s := range schemes {
			fmt.Fprintf(tw, "\t%s", s)
		}
		fmt.Fprintln(tw)
		for _, rp := range ratios {
			fmt.Fprintf(tw, "%d/%d", rp, 100-rp)
			for _, scheme := range schemes {
				cell, err := microCell(o, bench.MicroConfig{
					Scheme: scheme, Threads: o.MaxThreads, Locks: level.Locks,
					ReadPct: rp, Duration: o.Duration,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "\t%s", cell)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	return nil
}

// Table1 reproduces Table 1: reader success rate of OptiQL-NOR vs
// OptiQL under high contention across read/write ratios. Threads are
// split into dedicated readers and writers so the writer queue stands
// (see EXPERIMENTS.md for why this matters off the paper's hardware).
func Table1(o Options) error {
	o = o.filled()
	header(o.Out, "Table 1: reader success rate under high contention",
		fmt.Sprintf("%d threads (split readers/writers), %d locks", o.MaxThreads, bench.HighContention))
	ratios := []int{20, 50, 80, 90}
	tw := tabwriter.NewWriter(o.Out, 4, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Lock")
	for _, rp := range ratios {
		fmt.Fprintf(tw, "\t%d%%/%d%%", rp, 100-rp)
	}
	fmt.Fprintln(tw)
	for _, scheme := range []string{"OptiQL-NOR", "OptiQL"} {
		fmt.Fprint(tw, scheme)
		for _, rp := range ratios {
			mean, _, err := bench.Repeat(o.Runs, func() (float64, error) {
				r, err := bench.RunMicro(bench.MicroConfig{
					Scheme: scheme, Threads: o.MaxThreads,
					Locks: bench.HighContention, ReadPct: rp, Split: true,
					Duration: o.Duration,
				})
				if err != nil {
					return 0, err
				}
				return r.ReadSuccessRate() * 100, nil
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "\t%.2f%%", mean)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return nil
}

// Fig8 reproduces Figure 8: throughput vs critical-section length for
// a read-mostly workload under low and high contention.
func Fig8(o Options) error {
	o = o.filled()
	header(o.Out, "Figure 8: throughput vs critical-section length",
		fmt.Sprintf("80%% reads / 20%% writes, %d threads; Mops (mean±95%%CI)", o.MaxThreads))
	lengths := []int{5, 50, 100, 150, 200}
	schemes := []string{"OptLock", "OptiQL-NOR", "OptiQL"}
	for _, level := range []struct {
		name  string
		locks int
	}{{"low", bench.LowContention}, {"high", bench.HighContention}} {
		fmt.Fprintf(o.Out, "-- %s contention --\n", level.name)
		tw := tabwriter.NewWriter(o.Out, 4, 4, 2, ' ', 0)
		fmt.Fprint(tw, "CS length")
		for _, s := range schemes {
			fmt.Fprintf(tw, "\t%s", s)
		}
		fmt.Fprintln(tw)
		for _, cs := range lengths {
			fmt.Fprintf(tw, "%d", cs)
			for _, scheme := range schemes {
				cell, err := microCell(o, bench.MicroConfig{
					Scheme: scheme, Threads: o.MaxThreads, Locks: level.locks,
					ReadPct: 80, CSLen: cs, Duration: o.Duration,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "\t%s", cell)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	return nil
}

// Fig9 reproduces Figure 9: B+-tree and ART throughput under the
// skewed workload (self-similar 0.2, dense keys) for the five
// Section 7.3 workloads across the thread sweep.
func Fig9(o Options) error {
	o = o.filled()
	header(o.Out, "Figure 9: index throughput under skew (self-similar 0.2, dense keys)",
		fmt.Sprintf("%d records; Mops (mean±95%%CI)", o.Records))
	schemes := []string{"OptLock", "OptiQL-NOR", "OptiQL", "pthread", "MCS-RW"}
	for _, index := range []string{"btree", "art"} {
		for _, mixName := range workload.MixNames() {
			mix, _ := workload.MixByName(mixName)
			fmt.Fprintf(o.Out, "-- %s / %s --\n", index, mixName)
			tw := tabwriter.NewWriter(o.Out, 4, 4, 2, ' ', 0)
			fmt.Fprint(tw, "threads")
			for _, s := range schemes {
				fmt.Fprintf(tw, "\t%s", s)
			}
			fmt.Fprintln(tw)
			for _, th := range o.Threads {
				fmt.Fprintf(tw, "%d", th)
				for _, scheme := range schemes {
					cell, err := indexCell(o, bench.IndexConfig{
						Index: index, Scheme: scheme, Threads: th,
						Records: o.Records, Distribution: "selfsimilar",
						KeySpace: workload.Dense, Mix: mix,
						Duration: o.Duration,
					})
					if err != nil {
						return err
					}
					fmt.Fprintf(tw, "\t%s", cell)
				}
				fmt.Fprintln(tw)
			}
			tw.Flush()
		}
	}
	return nil
}

// Fig10 reproduces Figure 10: index throughput under low contention
// (uniform) with the balanced workload.
func Fig10(o Options) error {
	o = o.filled()
	header(o.Out, "Figure 10: index throughput under low contention (uniform, balanced)",
		fmt.Sprintf("%d records; Mops (mean±95%%CI)", o.Records))
	schemes := []string{"OptLock", "OptiQL-NOR", "OptiQL", "pthread", "MCS-RW"}
	for _, index := range []string{"btree", "art"} {
		fmt.Fprintf(o.Out, "-- %s --\n", index)
		tw := tabwriter.NewWriter(o.Out, 4, 4, 2, ' ', 0)
		fmt.Fprint(tw, "threads")
		for _, s := range schemes {
			fmt.Fprintf(tw, "\t%s", s)
		}
		fmt.Fprintln(tw)
		for _, th := range o.Threads {
			fmt.Fprintf(tw, "%d", th)
			for _, scheme := range schemes {
				cell, err := indexCell(o, bench.IndexConfig{
					Index: index, Scheme: scheme, Threads: th,
					Records: o.Records, Distribution: "uniform",
					KeySpace: workload.Dense, Mix: workload.Balanced,
					Duration: o.Duration,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "\t%s", cell)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	return nil
}

// Fig11 reproduces Figure 11: B+-tree throughput under the skewed
// distribution across node sizes, including the AOR variant.
func Fig11(o Options) error {
	o = o.filled()
	header(o.Out, "Figure 11: B+-tree throughput vs node size (with AOR)",
		fmt.Sprintf("self-similar 0.2, dense keys, %d threads, %d records; Mops (mean±95%%CI)", o.MaxThreads, o.Records))
	sizes := []int{256, 512, 1024, 2048, 4096, 8192, 16384}
	schemes := []string{"OptLock", "OptiQL-NOR", "OptiQL", "OptiQL-AOR"}
	for _, mixName := range []string{"read-heavy", "balanced", "write-heavy"} {
		mix, _ := workload.MixByName(mixName)
		fmt.Fprintf(o.Out, "-- %s --\n", mixName)
		tw := tabwriter.NewWriter(o.Out, 4, 4, 2, ' ', 0)
		fmt.Fprint(tw, "node size")
		for _, s := range schemes {
			fmt.Fprintf(tw, "\t%s", s)
		}
		fmt.Fprintln(tw)
		for _, size := range sizes {
			fmt.Fprintf(tw, "%d", size)
			for _, scheme := range schemes {
				cell, err := indexCell(o, bench.IndexConfig{
					Index: "btree", Scheme: scheme, Threads: o.MaxThreads,
					Records: o.Records, NodeSize: size,
					Distribution: "selfsimilar", KeySpace: workload.Dense,
					Mix: mix, Duration: o.Duration,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "\t%s", cell)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	return nil
}

// Fig12 reproduces Figure 12: operation latency percentiles for both
// indexes under the skewed distribution at two thread counts.
func Fig12(o Options) error {
	o = o.filled()
	lowT := o.MaxThreads / 2
	if lowT < 1 {
		lowT = 1
	}
	header(o.Out, "Figure 12: latency percentiles (microseconds)",
		fmt.Sprintf("self-similar 0.2, dense keys, %d records", o.Records))
	schemes := []string{"OptLock", "OptiQL-NOR", "OptiQL"}
	for _, index := range []string{"btree", "art"} {
		for _, mixName := range []string{"read-only", "balanced", "update-only"} {
			mix, _ := workload.MixByName(mixName)
			for _, th := range []int{lowT, o.MaxThreads} {
				fmt.Fprintf(o.Out, "-- %s / %s / %d threads --\n", index, mixName, th)
				tw := tabwriter.NewWriter(o.Out, 4, 4, 2, ' ', 0)
				fmt.Fprint(tw, "scheme")
				for _, l := range hist.PercentileLabels {
					fmt.Fprintf(tw, "\t%s", l)
				}
				fmt.Fprintln(tw)
				for _, scheme := range schemes {
					cfg := bench.IndexConfig{
						Index: index, Scheme: scheme, Threads: th,
						Records: o.Records, Distribution: "selfsimilar",
						KeySpace: workload.Dense, Mix: mix,
						Duration: o.Duration, Latency: true,
					}
					res, err := bench.RunIndex(cfg)
					if err != nil {
						return err
					}
					fmt.Fprint(tw, scheme)
					for _, v := range res.Hist.Snapshot() {
						fmt.Fprintf(tw, "\t%.1f", float64(v)/1000)
					}
					fmt.Fprintln(tw)
				}
				tw.Flush()
			}
		}
	}
	return nil
}

// Fig13 reproduces Figure 13: ART throughput with sparse integer keys
// (forcing lazy expansion and, under OptiQL, contention expansion).
func Fig13(o Options) error {
	o = o.filled()
	header(o.Out, "Figure 13: ART with sparse keys (self-similar 0.2)",
		fmt.Sprintf("%d records; Mops (mean±95%%CI)", o.Records))
	schemes := []string{"OptLock", "OptiQL-NOR", "OptiQL", "pthread", "MCS-RW"}
	for _, mixName := range []string{"read-heavy", "write-heavy"} {
		mix, _ := workload.MixByName(mixName)
		fmt.Fprintf(o.Out, "-- %s --\n", mixName)
		tw := tabwriter.NewWriter(o.Out, 4, 4, 2, ' ', 0)
		fmt.Fprint(tw, "threads")
		for _, s := range schemes {
			fmt.Fprintf(tw, "\t%s", s)
		}
		fmt.Fprintln(tw)
		for _, th := range o.Threads {
			fmt.Fprintf(tw, "%d", th)
			for _, scheme := range schemes {
				cell, err := indexCell(o, bench.IndexConfig{
					Index: "art", Scheme: scheme, Threads: th,
					Records: o.Records, Distribution: "selfsimilar",
					KeySpace: workload.Sparse, Mix: mix,
					Duration: o.Duration,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "\t%s", cell)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	return nil
}

// Fairness is an extension experiment supporting the Section 1.1
// discussion: under extreme contention it reports each scheme's
// throughput together with the max/min ratio of per-thread completed
// operations. FIFO queue locks stay near 1x; exponential backoff (the
// classic collapse mitigation) lets "lucky" threads acquire the lock
// far more often.
func Fairness(o Options) error {
	o = o.filled()
	header(o.Out, "Fairness (extension): per-thread acquisition skew under extreme contention",
		fmt.Sprintf("pure writers, 1 lock, %d threads; ratio = busiest/least-busy thread", o.MaxThreads))
	schemes := []string{"OptLock", "OptLock-Backoff", "TTS", "MCS", "CLH", "OptiQL-NOR", "OptiQL"}
	tw := tabwriter.NewWriter(o.Out, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tMops\tfairness ratio")
	for _, scheme := range schemes {
		var mops, ratio []float64
		for i := 0; i < o.Runs; i++ {
			r, err := bench.RunMicro(bench.MicroConfig{
				Scheme: scheme, Threads: o.MaxThreads,
				Locks: bench.ExtremeContention, Duration: o.Duration,
			})
			if err != nil {
				return err
			}
			mops = append(mops, r.Mops())
			ratio = append(ratio, r.FairnessRatio())
		}
		m, mc, err := bench.Stats(mops)
		if err != nil {
			return err
		}
		fr, _, err := bench.Stats(ratio)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.2f±%.2f\t%.2fx\n", scheme, m, mc, fr)
	}
	tw.Flush()
	return nil
}

// All runs every experiment in paper order: the native-hardware run of
// each figure, then the simulated-multicore reproductions of the
// contention-sensitive ones (Figures 6-8, Table 1; see internal/sim).
func All(o Options) error {
	for _, fn := range []func(Options) error{
		Fig1, Fig6, Fig7, Table1, Fig8, Fig9, Fig10, Fig11, Fig12, Fig13, Fairness,
		SimFig6, SimFig7, SimTable1, SimFig8, SimFairness,
	} {
		if err := fn(o); err != nil {
			return err
		}
	}
	return nil
}

// ByName resolves an experiment name ("fig1", ..., "table1", "all").
func ByName(name string) (func(Options) error, error) {
	m := map[string]func(Options) error{
		"fig1": Fig1, "fig6": Fig6, "fig7": Fig7, "table1": Table1,
		"fig8": Fig8, "fig9": Fig9, "fig10": Fig10, "fig11": Fig11,
		"fig12": Fig12, "fig13": Fig13, "fairness": Fairness, "all": All,
		"simfig6": SimFig6, "simfig7": SimFig7, "simtable1": SimTable1,
		"simfig8": SimFig8, "simfig9": SimFig9, "simfairness": SimFairness,
		"allsim": AllSimulated,
	}
	fn, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", name)
	}
	return fn, nil
}

// Names lists the experiment identifiers in paper order.
func Names() []string {
	return []string{
		"fig1", "fig6", "fig7", "table1", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fairness",
		"simfig6", "simfig7", "simtable1", "simfig8", "simfig9", "simfairness",
	}
}

// ParseThreads parses a comma-separated thread sweep such as
// "1,20,40,60,80".
func ParseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("experiments: bad thread count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: empty thread list")
	}
	return out, nil
}
