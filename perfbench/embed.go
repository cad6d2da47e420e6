package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"optiql/internal/art"
	"optiql/internal/btree"
	"optiql/internal/core"
	"optiql/internal/kv"
	"optiql/internal/locks"
	"optiql/internal/obs"
	"optiql/internal/workload"
)

// index is the surface of the two in-process trees the embedded
// workloads drive. *btree.Tree and *art.Tree implement it as they are;
// tests wrap it to plant faults.
type index interface {
	Lookup(c *locks.Ctx, k uint64) (uint64, bool)
	Update(c *locks.Ctx, k, v uint64) bool
	Insert(c *locks.Ctx, k, v uint64) bool
	Scan(c *locks.Ctx, start uint64, max int, out []kv.KV) []kv.KV
	Len() int
}

// embedSpec is an in-process index workload: closed-loop workers
// calling the tree directly, with no wire and no WAL.
type embedSpec struct {
	kind    string // "btree" or "art"
	keys    int
	space   workload.KeySpace
	theta   float64 // Zipfian skew; 0 means uniform
	mix     workload.Mix
	scanLen int
}

func (s embedSpec) dist() workload.Distribution {
	if s.theta > 0 {
		return workload.NewZipfian(uint64(s.keys), s.theta)
	}
	return workload.NewUniform(uint64(s.keys))
}

// scheme is the lock scheme every workload runs: OptiQL, the paper's
// default variant (the server's default too).
const scheme = "OptiQL"

func newIndex(kind string, sch *locks.Scheme) (index, error) {
	switch kind {
	case "btree":
		return btree.New(btree.Config{Scheme: sch})
	case "art":
		return art.New(art.Config{Scheme: sch})
	}
	return nil, fmt.Errorf("unknown index kind %q", kind)
}

// embedRun is one embedded workload run: the tree, the per-worker op
// streams and the state that carries across its phases.
type embedRun struct {
	spec   embedSpec
	opt    *options
	sch    *locks.Scheme
	pool   *core.Pool
	idx    index
	st     []stream
	ws     []workerState
	result *result
}

// workerState is what one worker carries from phase to phase, alone on
// its cache line so workers never write a shared line.
type workerState struct {
	pos   uint64 // next stream position
	fresh uint64 // fresh keys inserted so far
	seq   uint32 // write sequence
	_     [44]byte
}

// build creates the tree and preloads keys 0..keys-1 from all workers
// in parallel, each inserting its own contiguous range.
func (e *embedRun) build() (index, error) {
	idx, err := newIndex(e.spec.kind, e.sch)
	if err != nil {
		return nil, err
	}
	n := e.spec.keys
	errs := make([]error, e.opt.workers)
	var wg sync.WaitGroup
	for w := 0; w < e.opt.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := locks.NewCtx(e.pool, 0)
			defer c.Close()
			for i := w * n / e.opt.workers; i < (w+1)*n/e.opt.workers; i++ {
				k := e.spec.space.Key(uint64(i))
				if !idx.Insert(c, k, valueFor(k, 0)) {
					errs[w] = fmt.Errorf("preload: key %d reported as already present", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// freshKey returns worker w's next never-inserted key: indexes past the
// preloaded range, interleaved across workers.
func (e *embedRun) freshKey(w int) uint64 {
	i := uint64(e.spec.keys) + uint64(w) + uint64(e.opt.workers)*e.ws[w].fresh
	e.ws[w].fresh++
	return e.spec.space.Key(i)
}

// phaseOut is one measured closed-loop phase.
type phaseOut struct {
	sl  sliced
	lat latencies     // every 16th (traced: 4th) operation
	reg *obs.Registry // lock/index event counters (traced only)
}

// phase runs the workers for warmup+dur. Untraced phases time every
// 16th operation for the latency metrics; traced phases attach event
// counters and time every 4th operation as the index layer's spans.
func (e *embedRun) phase(warmup, dur time.Duration, traced bool) phaseOut {
	collect()
	var out phaseOut
	mask := uint64(15)
	if traced {
		out.reg = obs.NewRegistry()
		mask = 3
	}
	cs := make([]counter, e.opt.workers)
	lats := make([]latencies, e.opt.workers)
	tallies := make([]tally, e.opt.workers)
	cur := newSliceIndex()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < e.opt.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := locks.NewCtx(e.pool, 0)
			defer c.Close()
			c.SetCounters(out.reg.NewCounters())
			st, t := e.st[w], &tallies[w]
			lat := make(latencies, e.opt.slices)
			defer func() { lats[w] = lat }()
			buf := make([]kv.KV, 0, e.spec.scanLen)
			slice := int32(-1)
			var i uint64
			for ; ; i++ {
				if i&63 == 0 {
					cs[w].n.Store(i)
					if stop.Load() {
						break
					}
					slice = cur.Load()
				}
				j := (e.ws[w].pos + i) & (streamLen - 1)
				timed := slice >= 0 && i&mask == 0
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				cls := e.do(c, w, st.kinds[j], st.keys[j], &buf, t)
				if timed {
					lat[slice][cls] = append(lat[slice][cls], int64(time.Since(t0)))
				}
			}
			e.ws[w].pos += i
			t.attempted += i
		}(w)
	}
	out.sl = measureSlices(cs, cur, warmup, dur/time.Duration(e.opt.slices), e.opt.slices)
	stop.Store(true)
	wg.Wait()
	out.lat = make(latencies, e.opt.slices)
	for w := range tallies {
		e.result.tally(&tallies[w])
		for s := range out.lat {
			for c := range out.lat[s] {
				out.lat[s][c] = append(out.lat[s][c], lats[w][s][c]...)
			}
		}
	}
	return out
}

// do performs and checks one operation, returning its latency class.
func (e *embedRun) do(c *locks.Ctx, w int, kind workload.OpKind, k uint64, buf *[]kv.KV, t *tally) int {
	switch kind {
	case workload.OpLookup:
		v, ok := e.idx.Lookup(c, k)
		if !ok || !tagOK(k, v) {
			t.miss("lookup %d = (%#x, %v)", k, v, ok)
		}
		return clsRead
	case workload.OpUpdate:
		e.ws[w].seq++
		if !e.idx.Update(c, k, valueFor(k, e.ws[w].seq)) {
			t.miss("update %d: key not found", k)
		}
		return clsWrite
	case workload.OpInsert:
		e.ws[w].seq++
		nk := e.freshKey(w)
		if !e.idx.Insert(c, nk, valueFor(nk, e.ws[w].seq)) {
			t.miss("insert %d: fresh key reported as present", nk)
		}
		return clsWrite
	case workload.OpScan:
		out := e.idx.Scan(c, k, e.spec.scanLen, (*buf)[:0])
		*buf = out
		if len(out) == 0 || out[0].Key != k || len(out) > e.spec.scanLen {
			t.miss("scan %d: %d pairs, first %v", k, len(out), out)
			return clsScan
		}
		for i, p := range out {
			if (i > 0 && p.Key <= out[i-1].Key) || !tagOK(p.Key, p.Value) {
				t.miss("scan %d: pair %d = %+v out of order or mistagged", k, i, p)
				break
			}
		}
		return clsScan
	}
	panic(fmt.Sprintf("embedded workload has no %v operations", kind))
}

// verify scans the whole tree: keys strictly ascending, every value
// tagged for its key, and exactly the preloaded plus inserted keys
// resident.
func (e *embedRun) verify() {
	r := e.result
	c := locks.NewCtx(e.pool, 0)
	defer c.Close()
	want := e.spec.keys
	for _, ws := range e.ws {
		want += int(ws.fresh)
	}
	const page = 1024
	buf := make([]kv.KV, 0, page)
	count, start, last := 0, uint64(0), uint64(0)
	for {
		buf = e.idx.Scan(c, start, page, buf[:0])
		for _, p := range buf {
			r.Attempted++
			if (count > 0 && p.Key <= last) || !tagOK(p.Key, p.Value) {
				r.fail("final scan: pair %+v after key %d out of order or mistagged", p, last)
			}
			last = p.Key
			count++
		}
		if len(buf) < page || last == ^uint64(0) {
			break
		}
		start = last + 1
	}
	r.Attempted += 2
	if count != want {
		r.fail("final scan: %d keys resident, want %d", count, want)
	}
	if n := e.idx.Len(); n != want {
		r.fail("final Len: %d keys, want %d", n, want)
	}
}

// runEmbed runs an embedded workload.
func runEmbed(spec embedSpec, opt *options) (*result, error) {
	e := &embedRun{
		spec:   spec,
		opt:    opt,
		sch:    locks.MustByName(scheme),
		pool:   core.NewPool(core.MaxQNodes),
		ws:     make([]workerState, opt.workers),
		result: newResult(),
	}
	r := e.result
	var setups []float64
	for rep := 0; rep < opt.setupReps; rep++ {
		e.idx = nil
		runtime.GC()
		t0 := time.Now()
		idx, err := e.build()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		e.idx = idx
	}
	r.set("setup_s", median(setups), len(setups))
	r.set("mem_bytes_per_key", heapPerKey(spec.keys), spec.keys)
	if opt.wrap != nil {
		e.idx = opt.wrap(e.idx)
	}
	dist := spec.dist()
	for w := 0; w < opt.workers; w++ {
		e.st = append(e.st, genStream(workerSeed(opt.seed, w), dist, spec.space, spec.mix))
	}

	if !opt.traced {
		p := e.phase(opt.warmup, opt.measure, false)
		r.Phases["closed_loop_s"] = p.sl.proc.wall.Seconds()
		r.setSliced(p.sl)
		r.setLatency(p.lat, spec.mix.ScanPct > 0)
	} else {
		base := e.phase(opt.warmup, opt.measure/2, false)
		p := e.phase(opt.warmup/2, opt.measure/2, true)
		r.Phases["untraced_s"] = base.sl.proc.wall.Seconds()
		r.Phases["traced_s"] = p.sl.proc.wall.Seconds()
		e.layers(p, base)
	}
	e.verify()
	return r, nil
}

// layers reports the per-layer metrics of a traced phase.
func (e *embedRun) layers(p, base phaseOut) {
	r := e.result
	ops := p.sl.ops
	snap := p.reg.Snapshot()
	r.setPct(e.spec.kind+".lookup_ns_p50", slicedPct(p.lat.class(clsRead), 0.50))
	r.setPct(e.spec.kind+".lookup_ns_p99", slicedPct(p.lat.class(clsRead), 0.99))
	if e.spec.kind == "btree" {
		r.setPct("btree.update_ns_p50", slicedPct(p.lat.class(clsWrite), 0.50))
		r.set("btree.split_per_kop", perKop(snap.Get(obs.EvBTreeSplit), ops), int(ops))
		r.na(artLayer...)
	} else {
		r.setPct("art.insert_ns_p50", slicedPct(p.lat.class(clsWrite), 0.50))
		r.setPct("art.scan_ns_p50", slicedPct(p.lat.class(clsScan), 0.50))
		r.set("art.expand_per_kop", perKop(snap.Get(obs.EvARTExpand), ops), int(ops))
		r.na(btreeTimings...)
		r.na("btree.split_per_kop")
	}
	r.na(wireLayer...)
	r.na(clientLayer...)
	r.na(serverLayer...)
	r.na(walLayer...)
	r.na("loadgen.late_us_p99")
	r.setLocks(snap, ops)
	r.setProc(p.sl.proc, ops)
	// The index call is the only layer span: what it leaves of per-op
	// CPU is the benchmark loop itself.
	var spanNs []int64
	for _, bySlice := range p.lat {
		for _, l := range bySlice {
			spanNs = append(spanNs, l...)
		}
	}
	r.set("stack.unexplained_frac", unexplainedFrac(p.sl.cpuNsPerOp(), []float64{mean(spanNs)}), len(spanNs))
	r.set("trace.overhead_frac", 1-ratio(p.sl.opsPerSec(), base.sl.opsPerSec()), len(p.sl.rates))
}

// setLocks reports the locks.* layer metrics from an event counter
// snapshot taken over ops operations.
func (r *result) setLocks(s obs.Snapshot, ops uint64) {
	r.set("locks.read_fail_per_kop", perKop(s.Get(obs.EvShAcquireFail)+s.Get(obs.EvShValidateFail), ops), int(ops))
	r.set("locks.restart_per_kop", perKop(s.Get(obs.EvOpRestart), ops), int(ops))
	r.set("locks.opportunistic_per_kop", perKop(s.Get(obs.EvShOpportunistic), ops), int(ops))
	r.setRatio("locks.handover_frac", float64(s.Get(obs.EvExHandover)), float64(s.Get(obs.EvExHandover)+s.Get(obs.EvExFree)))
	r.setRatio("locks.grant_fanout_mean", float64(s.Get(obs.EvGrantFanout)), float64(s.Get(obs.EvBatchGrant)))
	r.setRatio("locks.upgrade_fail_ratio", float64(s.Get(obs.EvUpgradeFail)), float64(s.Get(obs.EvUpgradeFail)+s.Get(obs.EvUpgradeOK)))
}

// Metric groups of layers some workloads do not run.
var (
	btreeTimings = []string{"btree.lookup_ns_p50", "btree.lookup_ns_p99", "btree.update_ns_p50"}
	artLayer     = []string{"art.lookup_ns_p50", "art.lookup_ns_p99", "art.insert_ns_p50", "art.scan_ns_p50", "art.expand_per_kop"}
	wireLayer    = []string{"wire.encode_ns_per_op", "wire.decode_ns_per_op", "wire.bytes_per_op"}
	clientLayer  = []string{"client.send_ns_per_op", "client.flush_us_p50", "client.ops_per_flush", "client.recv_wait_us_p50"}
	serverLayer  = []string{"server.decode_us_p50", "server.queue_wait_us_p50", "server.queue_wait_us_p99",
		"server.exec_us_p50", "server.write_us_p50", "server.exec_batch_ops_mean", "server.shed_frac"}
	walLayer = []string{"wal.ops_per_fsync", "wal.fsync_us_p50", "wal.fsync_us_p99", "wal.bytes_per_user_byte"}
)
