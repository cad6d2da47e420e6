package obs

import (
	"sync/atomic"

	"optiql/internal/hist"
	"optiql/internal/obs/trace"
)

// HotKeyReport is one hot-key (or hot-node) ranking entry from the
// space-saving sketch: an approximate count plus its maximum
// overestimate, so consumers can judge whether a rank is trustworthy
// (Count - Err is a guaranteed lower bound on the true frequency).
type HotKeyReport struct {
	Key   uint64 `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"overestimate,omitempty"`
}

// ShardContention is one shard's contention view.
type ShardContention struct {
	Shard int `json:"shard"`
	// LockWait is the shard's exclusive-acquisition wait distribution
	// (sampled, nanoseconds).
	LockWait *LatencyReport `json:"lock_wait,omitempty"`
	// HotKeys ranks the shard's hottest keys from sampled operations.
	HotKeys []HotKeyReport `json:"hot_keys,omitempty"`
	// QueueDepth is the shard executor's queued-write gauge at scrape
	// time.
	QueueDepth int64 `json:"queue_depth"`
}

// ContentionReport is the JSON shape of /debug/contention and of the
// LockWait/HotKeys/QueueDepth sections in run reports: where lock time
// goes and which keys/nodes it goes to, from the sampled trace layer.
type ContentionReport struct {
	// SampleEvery is the sampling interval: every count below
	// represents roughly SampleEvery occurrences.
	SampleEvery int `json:"sample_every"`
	// Spans counts trace spans ever recorded; Dropped counts those
	// since overwritten by ring wraparound (histograms and sketches
	// are not affected by overwrite — they fold in every sample).
	Spans   uint64 `json:"spans_recorded"`
	Dropped uint64 `json:"spans_dropped,omitempty"`
	// LockWait merges every worker's exclusive-wait distribution.
	LockWait *LatencyReport `json:"lock_wait,omitempty"`
	// HotKeys ranks keys across all shards; HotNodes ranks lock/node
	// identities (opaque but stable within a run — equal values are
	// the same tree node).
	HotKeys  []HotKeyReport `json:"hot_keys,omitempty"`
	HotNodes []HotKeyReport `json:"hot_nodes,omitempty"`
	// QueueDepth is the per-shard executor queue gauge.
	QueueDepth []int64 `json:"queue_depth,omitempty"`
	// Shards breaks the above down per shard (omitted for single-shard
	// tracers, where it would repeat the top level).
	Shards []ShardContention `json:"shards,omitempty"`
	// Combine is the contention engine's state: per-shard arming and the
	// batch-grant / flat-combining counters. Omitted when the server ran
	// without -combine.
	Combine *CombineReport `json:"combine,omitempty"`
}

// CombineReport is the /debug/contention "combine" section: whether the
// contention engine is enabled, which shards its policy currently has
// armed, and the reaction counters (queue-layer batch grants and
// executor flat-combining).
type CombineReport struct {
	Enabled   bool    `json:"enabled"`
	Threshold float64 `json:"threshold"`
	// ArmedShards lists the shard indices whose combine policy is
	// currently armed (hot-key share above threshold).
	ArmedShards []int `json:"armed_shards,omitempty"`
	// BatchGrants counts lock releases that woke two or more compatible
	// queued-shared waiters in one grant; GrantFanout sums their
	// fanouts (mean group size = GrantFanout / BatchGrants).
	BatchGrants uint64 `json:"batch_grants"`
	GrantFanout uint64 `json:"grant_fanout"`
	// CombinedOps counts queued writes answered by a flat-combined
	// apply; CombineDepth counts the combined tree descents serving
	// them (mean run length = CombinedOps / CombineDepth).
	CombinedOps  uint64 `json:"combined_ops"`
	CombineDepth uint64 `json:"combine_depth"`
}

// CombineReportFrom assembles the combine section from a counter
// snapshot and the per-shard policies (nil entries allowed).
func CombineReportFrom(enabled bool, threshold float64, policies []*CombinePolicy, snap Snapshot) *CombineReport {
	r := &CombineReport{
		Enabled:      enabled,
		Threshold:    threshold,
		BatchGrants:  snap.Get(EvBatchGrant),
		GrantFanout:  snap.Get(EvGrantFanout),
		CombinedOps:  snap.Get(EvCombinedOps),
		CombineDepth: snap.Get(EvCombineDepth),
	}
	for i, p := range policies {
		if p.Armed() {
			r.ArmedShards = append(r.ArmedShards, i)
		}
	}
	return r
}

// Combine-policy tuning. The policy must be cheap enough to run
// unconditionally on the executor's apply path, so it samples its own
// sketch offers (1 in 1<<combineSampleShift ops) and re-evaluates only
// every combineEvalEvery sampled offers. The hot set is intentionally
// tiny: flat-combining only pays on keys hot enough to recur within one
// drained batch, and a skewed workload concentrates on very few keys.
const (
	combineSketchK     = 64
	combineDecayEvery  = 16384
	combineSampleShift = 4
	combineEvalEvery   = 256
	combineMinTotal    = 64
	combineHotSet      = 8
)

// DefaultCombineThreshold is the top-key traffic share at which a
// shard's policy arms flat-combining. A space-saving sketch with
// combineSketchK slots attributes roughly a 1/K ≈ 1.6% share to every
// key under a uniform workload, while theta=0.99 Zipfian traffic puts
// well over 10% on the hottest key, so 8% separates the regimes with
// margin on both sides.
const DefaultCombineThreshold = 0.08

// CombinePolicy arms and disarms flat-combining for one shard from the
// shard's own observed key traffic. It is owned by the shard's executor
// goroutine: Note and IsHot are single-threaded owner calls; only Armed
// is safe to read from other goroutines (scrapes).
//
// Arming uses hysteresis: the policy arms when the hottest key's
// estimated traffic share reaches the threshold and disarms only when
// it falls below half the threshold, so a workload hovering near the
// boundary does not flap. Uniform workloads never arm and pay only the
// sampled-offer counter per op.
type CombinePolicy struct {
	sk        *trace.Sketch
	threshold float64
	ctr       uint32
	sinceEval uint32
	armed     atomic.Bool
	// pinned suspends evaluate: a harness that forced the decision via
	// Arm/Disarm must not have it silently overridden by whatever
	// traffic the test happens to replay.
	pinned bool
	nHot   int
	hot    [combineHotSet]uint64
}

// NewCombinePolicy builds a policy arming at the given top-key traffic
// share (DefaultCombineThreshold when threshold <= 0).
func NewCombinePolicy(threshold float64) *CombinePolicy {
	if threshold <= 0 {
		threshold = DefaultCombineThreshold
	}
	return &CombinePolicy{
		sk:        trace.NewSketch(combineSketchK, combineDecayEvery),
		threshold: threshold,
	}
}

// Threshold returns the arming threshold.
func (p *CombinePolicy) Threshold() float64 {
	if p == nil {
		return 0
	}
	return p.threshold
}

// Note feeds one observed key. Owner-only. Most calls cost one counter
// increment and a mask; 1 in 16 offers the sketch, and 1 in 4096
// re-evaluates the arming decision.
//
//optiql:noalloc
func (p *CombinePolicy) Note(key uint64) {
	if p == nil {
		return
	}
	p.ctr++
	if p.ctr&((1<<combineSampleShift)-1) != 0 {
		return
	}
	p.sk.Offer(key)
	p.sinceEval++
	if p.sinceEval >= combineEvalEvery {
		p.sinceEval = 0
		p.evaluate()
	}
}

// evaluate re-decides arming from the sketch. Owner-only, cold
// (1 in combineEvalEvery<<combineSampleShift ops), allocation-free so
// the disarmed uniform path stays pinned at zero allocs.
//
//optiql:noalloc
func (p *CombinePolicy) evaluate() {
	if p.pinned {
		return
	}
	top, total := p.sk.Top()
	if total < combineMinTotal {
		return
	}
	share := float64(top.Count) / float64(total)
	if p.armed.Load() {
		if share < p.threshold*0.5 {
			p.armed.Store(false)
			p.nHot = 0
			return
		}
	} else {
		if share < p.threshold {
			return
		}
		p.armed.Store(true)
	}
	keys := p.sk.HotKeys(p.hot[:0], p.threshold*0.5)
	p.nHot = len(keys)
}

// Arm forces the policy armed with the given hot set (at most the
// policy's hot-set capacity is kept) and pins the decision: evaluate
// stops overriding it no matter what traffic Note subsequently sees.
// Deterministic harnesses use it instead of replaying enough skewed
// traffic through Note; the production path arms via Note/evaluate
// only.
func (p *CombinePolicy) Arm(keys ...uint64) {
	if p == nil {
		return
	}
	p.nHot = copy(p.hot[:], keys)
	p.pinned = true
	p.armed.Store(true)
}

// Disarm forces the policy disarmed and pinned (harness counterpart of
// Arm).
func (p *CombinePolicy) Disarm() {
	if p == nil {
		return
	}
	p.nHot = 0
	p.pinned = true
	p.armed.Store(false)
}

// Armed reports whether combining is currently armed. Safe from any
// goroutine; nil policies (combining disabled) report false.
//
//optiql:noalloc
func (p *CombinePolicy) Armed() bool { return p != nil && p.armed.Load() }

// IsHot reports whether key is in the armed hot set. Owner-only.
//
//optiql:noalloc
func (p *CombinePolicy) IsHot(key uint64) bool {
	if p == nil || !p.armed.Load() {
		return false
	}
	for i := 0; i < p.nHot; i++ {
		if p.hot[i] == key {
			return true
		}
	}
	return false
}

// LatencyReportFrom converts a histogram into the report schema (nil
// for empty histograms). Shared by the bench result reports and the
// contention layer so every tool emits one latency shape.
func LatencyReportFrom(h *hist.Histogram) *LatencyReport {
	if h == nil || h.Count() == 0 {
		return nil
	}
	pcts := make(map[string]uint64, len(hist.StandardPercentiles))
	snap := h.Snapshot()
	for i, label := range hist.PercentileLabels {
		pcts[label] = snap[i]
	}
	var buckets []BucketReport
	for _, b := range h.Buckets() {
		buckets = append(buckets, BucketReport{UpperNs: b.Upper, Count: b.Count})
	}
	return &LatencyReport{
		Count:       h.Count(),
		MinNs:       h.Min(),
		MaxNs:       h.Max(),
		MeanNs:      h.Mean(),
		Percentiles: pcts,
		Buckets:     buckets,
	}
}

func hotKeyReports(items []trace.HotItem) []HotKeyReport {
	if len(items) == 0 {
		return nil
	}
	out := make([]HotKeyReport, len(items))
	for i, it := range items {
		out[i] = HotKeyReport{Key: it.Key, Count: it.Count, Err: it.Err}
	}
	return out
}

// ContentionFrom snapshots a tracer into the report shape. depths,
// when non-nil, is the per-shard queue-depth gauge sampled by the
// caller (the tracer does not know about executor queues). Nil tracer
// means tracing is off: the report is nil.
func ContentionFrom(t *trace.Tracer, depths []int64) *ContentionReport {
	if t == nil {
		return nil
	}
	s := t.Snapshot()
	rep := &ContentionReport{
		SampleEvery: s.SampleEvery,
		Spans:       s.Recorded,
		Dropped:     s.Dropped,
		LockWait:    LatencyReportFrom(&s.Wait),
		HotKeys:     hotKeyReports(s.Keys),
		HotNodes:    hotKeyReports(s.Nodes),
		QueueDepth:  depths,
	}
	if len(s.Shards) > 1 {
		for i := range s.Shards {
			sc := ShardContention{
				Shard:    i,
				LockWait: LatencyReportFrom(&s.Shards[i].Wait),
				HotKeys:  hotKeyReports(s.Shards[i].Keys),
			}
			if i < len(depths) {
				sc.QueueDepth = depths[i]
			}
			rep.Shards = append(rep.Shards, sc)
		}
	}
	return rep
}

// AttachContention fills the report's contention sections from cr
// (no-op when cr is nil, i.e. tracing was off).
func (r *Report) AttachContention(cr *ContentionReport) {
	if cr == nil {
		return
	}
	r.LockWait = cr.LockWait
	r.HotKeys = cr.HotKeys
	r.HotNodes = cr.HotNodes
	r.QueueDepth = cr.QueueDepth
	r.Combine = cr.Combine
}
