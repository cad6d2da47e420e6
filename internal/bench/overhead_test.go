package bench

import (
	"fmt"
	"sync/atomic"
	"testing"

	"optiql/internal/btree"
	"optiql/internal/core"
	"optiql/internal/locks"
	"optiql/internal/obs"
	"optiql/internal/obs/trace"
	"optiql/internal/workload"
)

// overheadParallelism multiplies GOMAXPROCS for the RunParallel benches
// so contention exists even at GOMAXPROCS=1.
const overheadParallelism = 8

// newLoadedBTree builds a preloaded B+-tree for the overhead benches.
func newLoadedBTree(b *testing.B, scheme string, records int) (*btree.Tree, *core.Pool) {
	b.Helper()
	t := btree.MustNew(btree.Config{Scheme: locks.MustByName(scheme), NodeSize: 256})
	pool := core.NewPool(core.MaxQNodes)
	c := locks.NewCtx(pool, 8)
	for i := 0; i < records; i++ {
		t.Insert(c, workload.Dense.Key(uint64(i)), uint64(i))
	}
	c.Close()
	return t, pool
}

// BenchmarkObsOverhead is the enabled-vs-disabled A/B for the event
// counters: a uniform read-heavy B+-tree workload (the regime where a
// fixed per-op cost is most visible) run once with per-worker counters
// registered and once without. DESIGN.md records the measured delta;
// the counters are meant to be left on in normal runs.
func BenchmarkObsOverhead(b *testing.B) {
	const records = 100_000
	for _, scheme := range []string{"OptLock", "OptiQL"} {
		for _, arm := range []string{"disabled", "enabled"} {
			b.Run(fmt.Sprintf("%s/%s", scheme, arm), func(b *testing.B) {
				t, pool := newLoadedBTree(b, scheme, records)
				var reg *obs.Registry
				if arm == "enabled" {
					reg = obs.NewRegistry()
				}
				d := workload.NewUniform(records)
				var seq atomic.Uint64
				b.SetParallelism(overheadParallelism)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					c := locks.NewCtx(pool, 8)
					defer c.Close()
					c.SetCounters(reg.NewCounters()) // nil registry -> disabled
					rng := workload.NewRNG(seq.Add(1))
					for pb.Next() {
						k := workload.Dense.Key(d.Next(rng))
						if rng.Uint64n(100) < 80 {
							t.Lookup(c, k)
						} else {
							t.Update(c, k, rng.Uint64())
						}
					}
				})
			})
		}
	}
}

// BenchmarkTraceOverhead is the acceptance A/B for the contention
// profiler: a uniform read-heavy B+-tree workload (fixed per-op costs
// are most visible here) run with tracing off, with production 1-in-
// 1024 sampling, and with every operation sampled. The budget: the
// off arm within 1% of BenchmarkObsOverhead's enabled arm, sampled-
// 1024 within 3% (DESIGN.md §11 records the measured deltas). The
// loop mirrors MeasureIndex's per-op tracing exactly.
func BenchmarkTraceOverhead(b *testing.B) {
	const records = 100_000
	for _, scheme := range []string{"OptLock", "OptiQL"} {
		for _, arm := range []string{"off", "sampled-1024", "sampled-1"} {
			b.Run(fmt.Sprintf("%s/%s", scheme, arm), func(b *testing.B) {
				t, pool := newLoadedBTree(b, scheme, records)
				reg := obs.NewRegistry()
				var tracer *trace.Tracer
				switch arm {
				case "sampled-1024":
					tracer = trace.New(trace.Config{SampleEvery: 1024})
				case "sampled-1":
					tracer = trace.New(trace.Config{SampleEvery: 1})
				}
				d := workload.NewUniform(records)
				var seq atomic.Uint64
				b.SetParallelism(overheadParallelism)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					c := locks.NewCtx(pool, 8)
					defer c.Close()
					c.SetCounters(reg.NewCounters())
					w := seq.Add(1)
					tb := tracer.NewBuf(0, int(w)) // nil tracer -> nil buf, all no-ops
					c.SetTrace(tb)
					rng := workload.NewRNG(w)
					for pb.Next() {
						k := workload.Dense.Key(d.Next(rng))
						ts := tb.Sample()
						var t0 int64
						if ts {
							t0 = tb.Now()
							tb.NoteKey(0, k)
						}
						if rng.Uint64n(100) < 80 {
							t.Lookup(c, k)
						} else {
							t.Update(c, k, rng.Uint64())
						}
						if ts {
							tb.Record(trace.KindTreeOp, 0, t0, tb.Now()-t0, 0, k)
						}
					}
				})
			})
		}
	}
}
