package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"optiql/internal/obs"
	"optiql/internal/obs/trace"
	"optiql/internal/server/wire"
)

// traced runs a kv workload's traced measurement: an untraced
// saturation phase on the set-up server as the overhead base, then a
// fresh server with its request tracer on every request, a traced
// saturation phase (client spans, server spans, counters) and an open
// loop phase for the load generator's lateness. It returns the server
// left running for verification.
func (k *kvRun) traced(s *kvServer) (*kvServer, error) {
	r, o := k.res, k.opt
	d := time.Duration(tracedShare * float64(o.measure))
	base, err := k.closedLoop(s.addr, loopCfg{window: satWindow, warmup: o.warmup, dur: d})
	if derr := s.discard(); err == nil {
		err = derr
	}
	if err != nil {
		return nil, err
	}
	ts, err := k.start(true)
	if err != nil {
		return nil, err
	}
	for w := range k.cs {
		if k.cs[w].last != nil {
			clear(k.cs[w].last) // a fresh server: earlier acks are void
		}
	}
	clock := ts.srv.Tracer().NewBuf(-1, -1)
	wall0, tr0 := time.Now(), clock.Now()
	ctr0, st0 := ts.srv.Counters(), ts.srv.Stats()
	spans := make([]clientSpans, o.workers)
	traced, err := k.closedLoop(ts.addr, loopCfg{window: satWindow, warmup: o.warmup / 2, dur: d, spans: spans})
	if err != nil {
		ts.discard()
		return nil, err
	}
	sat := traced.sl
	ctr1, st1 := ts.srv.Counters(), ts.srv.Stats()
	lo, hi := tr0+int64(sat.start.Sub(wall0)), tr0+int64(sat.end.Sub(wall0))
	srvSpans := ts.srv.Tracer().Spans()
	ol, err := k.openLoop(ts.addr, d)
	if err != nil {
		ts.discard()
		return nil, err
	}
	r.Phases["untraced_saturation_s"] = base.sl.proc.wall.Seconds()
	r.Phases["traced_saturation_s"] = sat.proc.wall.Seconds()
	r.Phases["open_loop_s"] = ol.dur.Seconds()
	// The open loop's latencies, timed from each request's due time,
	// are reported here rather than as end-to-end metrics: see
	// README.md on why they do not repeat from run to run.
	r.Metrics["open_loop.rate"] = value{Value: openLoopRate, Unit: "1/s"}
	for cls, name := range classNames {
		for _, q := range []float64{0.50, 0.99} {
			p := slicedPct(ol.lat.class(cls), q).scaled(1e3)
			if p.Samples > 0 {
				r.Metrics[fmt.Sprintf("open_loop.%s_p%.0f_us", name, q*100)] = value{Value: p.Value, Unit: "us", Samples: p.Samples, Groups: p.Groups}
			}
		}
	}

	ops := sat.ops
	snap := obs.Snapshot{}
	for e := range snap.Counts {
		snap.Counts[e] = ctr1.Counts[e] - ctr0.Counts[e]
	}
	r.setLocks(snap, ops)
	r.set("btree.split_per_kop", perKop(snap.Get(obs.EvBTreeSplit), ops), int(ops))
	r.na(btreeTimings...)
	r.na(artLayer...)
	r.setProc(sat.proc, ops)
	r.setPct("loadgen.late_us_p99", percentile(ol.late, 0.99).scaled(1e3))
	r.set("trace.overhead_frac", 1-ratio(sat.opsPerSec(), base.sl.opsPerSec()), len(sat.rates))

	// Client layer: the benchmark's spans around its client calls.
	var cl clientSpans
	for _, sp := range spans {
		cl.sendNs += sp.sendNs
		cl.sends += sp.sends
		cl.flushNs = append(cl.flushNs, sp.flushNs...)
		cl.flushOps += sp.flushOps
		cl.recvNs = append(cl.recvNs, sp.recvNs...)
		cl.replay = append(cl.replay, sp.replay...)
	}
	var flushTotal int64
	for _, f := range cl.flushNs {
		flushTotal += f
	}
	r.setRatio("client.send_ns_per_op", float64(cl.sendNs), float64(cl.sends))
	r.setPct("client.flush_us_p50", percentile(cl.flushNs, 0.50).scaled(1e3))
	r.setRatio("client.ops_per_flush", float64(cl.flushOps), float64(len(cl.flushNs)))
	r.setPct("client.recv_wait_us_p50", percentile(cl.recvNs, 0.50).scaled(1e3))

	// Wire layer: the recorded stream replayed through the codec.
	cc := replayCodec(cl.replay)
	r.set("wire.encode_ns_per_op", cc.encReq+cc.encResp, len(cl.replay))
	r.set("wire.decode_ns_per_op", cc.decReq+cc.decResp, len(cl.replay))
	r.set("wire.bytes_per_op", cc.bytes, len(cl.replay))

	// Server layer: its own request spans within the traced phase.
	ss := splitServerSpans(srvSpans, lo, hi)
	r.setPct("server.decode_us_p50", percentile(ss.decode, 0.50).scaled(1e3))
	r.setPct("server.queue_wait_us_p50", percentile(ss.queue, 0.50).scaled(1e3))
	r.setPct("server.queue_wait_us_p99", percentile(ss.queue, 0.99).scaled(1e3))
	r.setPct("server.exec_us_p50", percentile(ss.exec, 0.50).scaled(1e3))
	r.setPct("server.write_us_p50", percentile(ss.write, 0.50).scaled(1e3))
	r.set("server.exec_batch_ops_mean", mean(ss.batchOps), len(ss.batchOps))
	r.setRatio("server.shed_frac", float64(st1.Shed-st0.Shed), float64(st1.Ops-st0.Ops))

	// Stack accounting: per-op CPU against the summed per-op self time of
	// every layer span. Waiting (queue wait, the client's wait for a
	// response) costs no CPU and is left out; the decode span begins
	// before the frame is read, so its median, not its mean, stands for
	// the decode work. Span rings keep only their latest spans, and the
	// connection rings fill faster than the executors', so the read and
	// write shares come from the server's operation counts, not from
	// span counts.
	reads := float64(st1.Gets - st0.Gets + st1.Scans - st0.Scans)
	writes := float64(st1.Puts - st0.Puts)
	layers := map[string]float64{
		"client.send":       ratio(float64(cl.sendNs), float64(cl.sends)),
		"client.flush":      ratio(float64(flushTotal), float64(cl.flushOps)),
		"client.parse":      cc.decResp,
		"server.decode":     percentile(ss.decode, 0.50).Value,
		"server.exec_read":  mean(ss.execRead) * ratio(reads, reads+writes),
		"server.exec_write": mean(ss.execWrite) * ratio(writes, reads+writes),
		"server.batch_self": ratio(float64(ss.batchSelf), float64(sumInts(ss.batchOps))) * ratio(writes, reads+writes),
		"server.write":      mean(ss.write),
	}
	var parts []float64
	for name, ns := range layers {
		r.Metrics["stack."+name+"_ns_per_op"] = value{Value: ns, Unit: "ns"}
		parts = append(parts, ns)
	}
	cpu := sat.cpuNsPerOp()
	r.Metrics["stack.cpu_ns_per_op"] = value{Value: cpu, Unit: "ns", Samples: len(sat.cpuPerOp)}
	r.set("stack.unexplained_frac", unexplainedFrac(cpu, parts), int(ops))
	return ts, nil
}

// walProbeSpec is the durable configuration the WAL probe runs: the
// server with its WAL on the checkout's disk under the default interval
// fsync policy, 100k dense keys, Zipfian θ=0.99, 80% PUT / 20% GET, so
// that the shard executors, group commit and fsync dominate.
func walProbeSpec(o *options) kvSpec {
	return kvSpec{keys: o.scale(100_000), theta: 0.99, getPct: 20, putPct: 80, wal: true}
}

// walProbe measures the WAL layer in a traced kv run: a fresh durable
// server saturated for dur, then verified — including a restart on the
// same WAL directory that must reproduce every acknowledged write. The
// probe's end-to-end figures go to the detail line only: fsync latency
// on a shared disk drifts too far between runs to bound them (see
// README.md).
func walProbe(o *options, r *result, dur time.Duration) error {
	defer os.RemoveAll(walRoot(o))
	pk := &kvRun{spec: walProbeSpec(o), opt: o, res: r, cs: make([]connState, o.workers)}
	pk.prepare()
	s, err := pk.start(false)
	if err != nil {
		return err
	}
	w0 := s.srv.WALReport()
	out, err := pk.closedLoop(s.addr, loopCfg{window: satWindow, warmup: o.warmup / 2, dur: dur})
	if err != nil {
		s.discard()
		return err
	}
	w1 := s.srv.WALReport()
	r.Phases["wal_probe_s"] = out.sl.proc.wall.Seconds()
	r.Metrics["wal_probe.ops_per_s"] = value{Value: out.sl.opsPerSec(), Unit: "1/s", Samples: len(out.sl.rates)}
	r.Metrics["wal_probe.cpu_us_per_op"] = value{Value: out.sl.cpuNsPerOp() / 1e3, Unit: "us", Samples: len(out.sl.cpuPerOp)}
	r.Series["wal_probe.ops_per_s"] = out.sl.rates
	appended := w1.AppendedOps - w0.AppendedOps
	r.setRatio("wal.ops_per_fsync", float64(appended), float64(w1.Syncs-w0.Syncs))
	r.setRatio("wal.bytes_per_user_byte", float64(w1.AppendedBytes-w0.AppendedBytes), 16*float64(appended))
	// The fsync distribution is the log's own histogram since start,
	// bucketed: good enough for a per-layer figure, never for a bound.
	if fs := w1.FsyncLatency; fs != nil {
		note := "internal/hist bucket since server start"
		r.Metrics["wal.fsync_us_p50"] = value{Value: float64(fs.Percentiles["50%"]) / 1e3, Unit: "us", Samples: int(fs.Count), Note: note}
		r.Metrics["wal.fsync_us_p99"] = value{Value: float64(fs.Percentiles["99%"]) / 1e3, Unit: "us", Samples: int(fs.Count), Note: note}
	} else {
		r.na("wal.fsync_us_p50", "wal.fsync_us_p99")
	}
	err = pk.verify(s)
	if derr := s.discard(); err == nil {
		err = derr
	}
	return err
}

func sumInts(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// serverSpans are the server tracer's request spans of one phase.
type serverSpans struct {
	decode, queue, exec, write []int64
	execRead, execWrite        []int64 // exec on connection readers / shard executors
	batchOps                   []int64 // writes per executor batch
	batchSelf                  int64   // executor batch time outside its ops' exec spans
}

// splitServerSpans sorts the spans recorded within [lo, hi] by kind and
// computes each executor batch's self time against the exec spans of
// the writes it applied.
func splitServerSpans(spans []trace.Span, lo, hi int64) serverSpans {
	var ss serverSpans
	execByShard := map[int16][]interval{}
	var batches []trace.Span
	for _, sp := range spans {
		if sp.Start < lo || sp.Start+sp.Dur > hi {
			continue
		}
		switch sp.Kind {
		case trace.KindReqDecode:
			ss.decode = append(ss.decode, sp.Dur)
		case trace.KindReqQueue:
			ss.queue = append(ss.queue, sp.Dur)
		case trace.KindReqExec:
			ss.exec = append(ss.exec, sp.Dur)
			if sp.Shard < 0 {
				ss.execRead = append(ss.execRead, sp.Dur)
			} else {
				ss.execWrite = append(ss.execWrite, sp.Dur)
				execByShard[sp.Shard] = append(execByShard[sp.Shard], interval{sp.Start, sp.Dur})
			}
		case trace.KindReqWrite:
			ss.write = append(ss.write, sp.Dur)
		case trace.KindExecBatch:
			batches = append(batches, sp)
			ss.batchOps = append(ss.batchOps, int64(sp.Key))
		}
	}
	for _, ivs := range execByShard {
		slices.SortFunc(ivs, func(a, b interval) int { return int(a.Start - b.Start) })
	}
	for _, b := range batches {
		ivs := execByShard[b.Shard]
		i, _ := slices.BinarySearchFunc(ivs, b.Start, func(iv interval, t int64) int { return int(iv.Start - t) })
		j := i
		for j < len(ivs) && ivs[j].Start < b.Start+b.Dur {
			j++
		}
		ss.batchSelf += selfTime(interval{b.Start, b.Dur}, ivs[i:j])
	}
	return ss
}

// codecCost is the wire codec's cost per request/response pair.
type codecCost struct {
	encReq, encResp, decReq, decResp float64 // ns per op
	bytes                            float64 // request+response frame bytes per op
}

// replayCodec replays recorded request/response pairs through the
// codec's four entry points, each for at least 20ms, and reports the
// mean cost per pair.
func replayCodec(pairs []replayPair) codecCost {
	var cc codecCost
	n := len(pairs)
	if n == 0 {
		return cc
	}
	reqF := make([][]byte, n)
	respF := make([][]byte, n)
	var total int
	for i := range pairs {
		reqF[i], _ = wire.AppendRequest(nil, &pairs[i].req)
		respF[i], _ = wire.AppendResponse(nil, &pairs[i].req, &pairs[i].resp)
		total += len(reqF[i]) + len(respF[i])
	}
	cc.bytes = float64(total) / float64(n)
	var buf []byte
	timeIt := func(f func(i int)) float64 {
		reps := 0
		t0 := time.Now()
		for time.Since(t0) < 20*time.Millisecond {
			for i := 0; i < n; i++ {
				f(i)
			}
			reps++
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(reps*n)
	}
	cc.encReq = timeIt(func(i int) { buf, _ = wire.AppendRequest(buf[:0], &pairs[i].req) })
	cc.encResp = timeIt(func(i int) { buf, _ = wire.AppendResponse(buf[:0], &pairs[i].req, &pairs[i].resp) })
	cc.decReq = timeIt(func(i int) { wire.ParseRequest(reqF[i][4:]) })
	cc.decResp = timeIt(func(i int) { wire.ParseResponse(respF[i][4:], &pairs[i].req) })
	return cc
}
