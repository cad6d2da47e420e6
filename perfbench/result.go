package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them in an untraced run (--trace 0). fail_ratio and
// scan_p99_us are reported in the detail line only: fail_ratio is 0 by
// design and is carried by the result's failed/attempted counts, and
// scan_p99_us exists only on the two workloads that scan.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"mem_bytes_per_key", "B"},
}

// perLayer are the metrics a traced run (--trace 1) reports. A layer a
// workload does not run reports 0, with a note in the detail line.
var perLayer = []metricDef{
	{"locks.read_fail_per_kop", "1/kop"},
	{"locks.restart_per_kop", "1/kop"},
	{"locks.opportunistic_per_kop", "1/kop"},
	{"locks.handover_frac", "ratio"},
	{"locks.grant_fanout_mean", "count"},
	{"locks.upgrade_fail_ratio", "ratio"},
	{"btree.lookup_ns_p50", "ns"},
	{"btree.lookup_ns_p99", "ns"},
	{"btree.update_ns_p50", "ns"},
	{"btree.split_per_kop", "1/kop"},
	{"art.lookup_ns_p50", "ns"},
	{"art.lookup_ns_p99", "ns"},
	{"art.insert_ns_p50", "ns"},
	{"art.scan_ns_p50", "ns"},
	{"art.expand_per_kop", "1/kop"},
	{"wire.encode_ns_per_op", "ns"},
	{"wire.decode_ns_per_op", "ns"},
	{"wire.bytes_per_op", "B"},
	{"client.send_ns_per_op", "ns"},
	{"client.flush_us_p50", "us"},
	{"client.ops_per_flush", "count"},
	{"client.recv_wait_us_p50", "us"},
	{"server.decode_us_p50", "us"},
	{"server.queue_wait_us_p50", "us"},
	{"server.queue_wait_us_p99", "us"},
	{"server.exec_us_p50", "us"},
	{"server.write_us_p50", "us"},
	{"server.exec_batch_ops_mean", "count"},
	{"server.shed_frac", "ratio"},
	{"wal.ops_per_fsync", "count"},
	{"wal.fsync_us_p50", "us"},
	{"wal.fsync_us_p99", "us"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"proc.allocs_per_op", "count"},
	{"proc.sys_cpu_frac", "ratio"},
	{"proc.gc_cpu_frac", "ratio"},
	{"loadgen.late_us_p99", "us"},
	{"stack.unexplained_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// unitOf maps every metric name the benchmark knows to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{"fail_ratio": "ratio", "scan_p99_us": "us"}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.Name] = d.Unit
	}
	return m
}()

// value is one reported metric. Samples is the number of raw samples a
// percentile or mean was taken over; Note explains a 0 reported for a
// layer the workload does not run, or a percentile the samples cannot
// support.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Groups  int     `json:"groups,omitempty"`
	Base    float64 `json:"base,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// result is one run's outcome: correctness accounting, metrics, and the
// conditions they were measured under.
type result struct {
	Attempted  uint64           `json:"attempted"`
	Failed     uint64           `json:"failed"`
	Mismatches uint64           `json:"mismatches"`
	Metrics    map[string]value `json:"metrics"`
	Conditions conditions       `json:"conditions"`
	// Phases records the measured intervals (name → seconds).
	Phases map[string]float64 `json:"phases"`
	// Series holds per-slice values behind the medians reported.
	Series map[string][]float64 `json:"series"`
	// Errors lists the first few failures, for diagnosis.
	Errors []string `json:"errors,omitempty"`
}

func newResult() *result {
	return &result{Metrics: map[string]value{}, Phases: map[string]float64{}, Series: map[string][]float64{}}
}

// set records a plain metric value.
func (r *result) set(name string, v float64, samples int) {
	r.Metrics[name] = value{Value: v, Unit: unitOf[name], Samples: samples}
}

// setSliced records a closed-loop phase's throughput and CPU per op as
// the medians of their per-slice values, keeping the series.
func (r *result) setSliced(s sliced) {
	r.set("ops_per_s", s.opsPerSec(), len(s.rates))
	r.set("cpu_us_per_op", s.cpuNsPerOp()/1e3, len(s.cpuPerOp))
	r.Series["ops_per_s"] = s.rates
	r.Series["cpu_ns_per_op"] = s.cpuPerOp
}

// setRatio records a ratio together with the base it was taken over.
func (r *result) setRatio(name string, num, den float64) {
	r.Metrics[name] = value{Value: ratio(num, den), Unit: unitOf[name], Base: den}
}

// setPct records a percentile, or a 0 with a note when too few samples
// lie beyond it to support it.
func (r *result) setPct(name string, p pct) {
	v := value{Value: p.Value, Unit: unitOf[name], Samples: p.Samples, Groups: p.Groups}
	if !p.OK {
		v.Value = 0
		v.Note = fmt.Sprintf("unsupported: %d samples, %d beyond (need %d)", p.Samples, p.Beyond, minBeyond)
	}
	r.Metrics[name] = v
	if p.Series != nil {
		r.Series[name] = p.Series
	}
}

// na records 0 for a metric of a layer this workload does not run.
func (r *result) na(names ...string) {
	for _, n := range names {
		r.Metrics[n] = value{Unit: unitOf[n], Note: "n/a: layer not exercised by this workload"}
	}
}

// fail counts one failed operation and keeps its description when the
// error list is still short.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Mismatches++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// tally folds one worker's counts into the result.
func (r *result) tally(t *tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	r.Mismatches += t.mismatches
	for _, e := range t.errs {
		if len(r.Errors) < 20 {
			r.Errors = append(r.Errors, e)
		}
	}
}

// tally is one goroutine's private correctness accounting.
type tally struct {
	attempted, failed, mismatches uint64
	errs                          []string
}

// miss counts a wrong answer (a correctness mismatch).
func (t *tally) miss(format string, args ...any) {
	t.mismatches++
	t.bad(format, args...)
}

// bad counts a failed operation (error, overload, timeout or mismatch).
func (t *tally) bad(format string, args ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// required returns the metrics the run must report.
func required(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// emit writes the detail line and then the result line the contract
// asks for: {"correct","attempted","failed","metrics"}. It fails when a
// required end-to-end metric is missing or unsupported by its samples,
// since a result without it cannot be compared.
func emit(w io.Writer, r *result, traced bool) error {
	r.Metrics["fail_ratio"] = value{Value: ratio(float64(r.Failed), float64(r.Attempted)),
		Unit: "ratio", Base: float64(r.Attempted)}
	out := make(map[string]map[string]any, len(required(traced)))
	for _, d := range required(traced) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if !traced && (v.Note != "" || v.Value <= 0 || math.IsNaN(v.Value)) {
			return fmt.Errorf("end-to-end metric %s = %v is not supported by the run (%s)", d.Name, v.Value, v.Note)
		}
		out[d.Name] = map[string]any{"value": v.Value, "unit": d.Unit}
	}
	detail, err := json.Marshal(map[string]any{"perfbench": r})
	if err != nil {
		return err
	}
	final, err := json.Marshal(map[string]any{
		"correct":   r.Mismatches == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", detail, final)
	return err
}
