package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"optiql/internal/workload"
)

// Value tagging: every value the benchmark writes for key k carries
// tagOf(k) in its high 32 bits and a writer sequence in the low 32, so
// any read can be checked against its key without a shared oracle.

func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func tagOf(k uint64) uint32 { return uint32(mix64(k^0x5bd1e995) >> 32) }

func valueFor(k uint64, seq uint32) uint64 { return uint64(tagOf(k))<<32 | uint64(seq) }

func tagOK(k, v uint64) bool { return uint32(v>>32) == tagOf(k) }

// Latency classes.
const (
	clsRead = iota
	clsWrite
	clsScan
	numClasses
)

var classNames = [numClasses]string{"read", "write", "scan"}

// latencies are operation latencies in ns, by slice of the measured
// phase and by class.
type latencies [][numClasses][]int64

// class returns one class's samples, by slice.
func (l latencies) class(cls int) [][]int64 {
	out := make([][]int64, len(l))
	for s := range l {
		out[s] = l[s][cls]
	}
	return out
}

// setLatency reports the end-to-end latency percentiles of a phase,
// and the scan tail in the detail line when the workload scans.
func (r *result) setLatency(l latencies, scans bool) {
	r.setPct("read_p50_us", slicedPct(l.class(clsRead), 0.50).scaled(1e3))
	r.setPct("read_p99_us", slicedPct(l.class(clsRead), 0.99).scaled(1e3))
	r.setPct("write_p50_us", slicedPct(l.class(clsWrite), 0.50).scaled(1e3))
	r.setPct("write_p99_us", slicedPct(l.class(clsWrite), 0.99).scaled(1e3))
	if scans {
		r.setPct("scan_p99_us", slicedPct(l.class(clsScan), 0.99).scaled(1e3))
	}
}

// stream is a pre-generated operation sequence for one worker, cycled
// through during the run: generation stays out of the timed loop, and
// the same seed always yields the same sequence.
type stream struct {
	keys  []uint64
	kinds []workload.OpKind
}

// streamLen is the number of operations pre-generated per worker.
const streamLen = 1 << 20

func genStream(seed uint64, dist workload.Distribution, space workload.KeySpace, mix workload.Mix) stream {
	rng := workload.NewRNG(mix64(seed) | 1)
	s := stream{keys: make([]uint64, streamLen), kinds: make([]workload.OpKind, streamLen)}
	for i := range s.keys {
		s.kinds[i] = mix.Draw(rng)
		s.keys[i] = space.Key(dist.Next(rng))
	}
	return s
}

// workerSeed derives worker w's stream seed from the run seed.
func workerSeed(seed uint64, w int) uint64 { return mix64(seed*0x100000001B3 + uint64(w) + 1) }

// counter is a worker's published operation count, alone on its cache
// line so the owner's updates do not slow the other workers.
type counter struct {
	n atomic.Uint64
	_ [56]byte
}

func sumCounters(cs []counter) uint64 {
	var s uint64
	for i := range cs {
		s += cs[i].n.Load()
	}
	return s
}

// procSample is a point-in-time reading of process CPU and runtime
// accounting.
type procSample struct {
	at          time.Time
	user, sys   time.Duration
	gcCPUSecs   float64
	heapObjects uint64
}

var procMetricNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/gc/heap/allocs:objects"}

func readProc() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	ms := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	p := procSample{
		at:   time.Now(),
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPUSecs = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		p.heapObjects = ms[1].Value.Uint64()
	}
	return p
}

// procDelta is the process accounting between two samples.
type procDelta struct {
	wall, cpu, sys time.Duration
	gcCPU          float64 // seconds
	allocs         uint64
}

func (b procSample) since(a procSample) procDelta {
	return procDelta{
		wall:   b.at.Sub(a.at),
		cpu:    (b.user - a.user) + (b.sys - a.sys),
		sys:    b.sys - a.sys,
		gcCPU:  b.gcCPUSecs - a.gcCPUSecs,
		allocs: b.heapObjects - a.heapObjects,
	}
}

// sliced is a closed-loop phase measured in equal slices: per-slice
// throughput and CPU per operation, whose medians are reported so that
// one disturbed slice (another tenant's burst) does not move the result.
type sliced struct {
	rates      []float64 // ops/s per slice
	cpuPerOp   []float64 // CPU ns per op per slice
	ops        uint64
	proc       procDelta
	start, end time.Time // the measured interval
}

func (s sliced) opsPerSec() float64  { return median(s.rates) }
func (s sliced) cpuNsPerOp() float64 { return median(s.cpuPerOp) }

// newSliceIndex returns a slice index reading "not recording".
func newSliceIndex() *atomic.Int32 {
	cur := new(atomic.Int32)
	cur.Store(-1)
	return cur
}

// measureSlices lets already-running workers warm up, then runs n
// slices of length slice, publishing the current slice's index in cur
// (-1 outside them) and sampling the workers' op counters and process
// CPU at each boundary. Workers poll cur and record samples only while
// it is not negative, grouped by its value.
func measureSlices(cs []counter, cur *atomic.Int32, warmup, slice time.Duration, n int) sliced {
	time.Sleep(warmup)
	cur.Store(0)
	first := readProc()
	prev, prevOps := first, sumCounters(cs)
	startOps := prevOps
	var s sliced
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(first.at.Add(time.Duration(i) * slice)))
		now, ops := readProc(), sumCounters(cs)
		d := now.since(prev)
		s.rates = append(s.rates, float64(ops-prevOps)/d.wall.Seconds())
		s.cpuPerOp = append(s.cpuPerOp, ratio(float64(d.cpu.Nanoseconds()), float64(ops-prevOps)))
		prev, prevOps = now, ops
		cur.Store(int32(i))
	}
	cur.Store(-1)
	s.ops = prevOps - startOps
	s.proc = prev.since(first)
	s.start, s.end = first.at, prev.at
	return s
}

// collect runs a full collection before a measured phase, so that the
// collection the set-up's garbage is due does not fall inside some
// runs' measured windows and not others'.
func collect() { runtime.GC() }

// heapPerKey reports live heap bytes per resident key after full
// collections. It collects twice: objects the discarded set-ups left in
// sync.Pools survive one collection in the pools' victim caches.
func heapPerKey(keys int) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return ratio(float64(m.HeapAlloc), float64(keys))
}

// setProc reports the proc.* layer metrics for one measured phase.
func (r *result) setProc(d procDelta, ops uint64) {
	r.setRatio("proc.allocs_per_op", float64(d.allocs), float64(ops))
	r.setRatio("proc.sys_cpu_frac", d.sys.Seconds(), d.cpu.Seconds())
	r.setRatio("proc.gc_cpu_frac", d.gcCPU, d.cpu.Seconds())
}
