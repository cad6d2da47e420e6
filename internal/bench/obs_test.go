package bench

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"optiql/internal/obs"
	"optiql/internal/workload"
)

func TestTimelineStatsExact(t *testing.T) {
	tl := &Timeline{Interval: 100 * time.Millisecond, Ops: []uint64{100_000, 300_000}}
	// 100ms intervals: 1 and 3 Mops -> min 1, avg 2, stddev 1.
	min, avg, stddev := tl.Stats()
	if math.Abs(min-1) > 1e-9 || math.Abs(avg-2) > 1e-9 || math.Abs(stddev-1) > 1e-9 {
		t.Fatalf("Stats() = %f %f %f, want 1 2 1", min, avg, stddev)
	}
	rep := tl.Report()
	if rep == nil || rep.IntervalSeconds != 0.1 || len(rep.OpsPerInterval) != 2 {
		t.Fatalf("Report() = %+v", rep)
	}
}

func TestTimelineEmpty(t *testing.T) {
	var tl *Timeline
	if min, avg, stddev := tl.Stats(); min != 0 || avg != 0 || stddev != 0 {
		t.Fatal("nil timeline must have zero stats")
	}
	if tl.Report() != nil {
		t.Fatal("nil timeline must have nil report")
	}
	empty := &Timeline{Interval: time.Second}
	if empty.Report() != nil {
		t.Fatal("empty timeline must have nil report")
	}
}

func TestMopsZeroElapsedGuard(t *testing.T) {
	if m := (IndexResult{Ops: 100}).Mops(); m != 0 {
		t.Fatalf("IndexResult zero-elapsed Mops = %f", m)
	}
	if m := (MicroResult{Ops: 100}).Mops(); m != 0 {
		t.Fatalf("MicroResult zero-elapsed Mops = %f", m)
	}
}

// TestIndexObsAndTimeline checks that a normal run carries a counter
// snapshot, a timeline whose interval sum cannot exceed the total, and
// distinct miss counts; and that DisableObs / negative SampleEvery
// suppress them.
func TestIndexObsAndTimeline(t *testing.T) {
	cfg := IndexConfig{
		Index:        "btree",
		Scheme:       "OptiQL",
		Threads:      2,
		Records:      2000,
		Distribution: "uniform",
		KeySpace:     workload.Dense,
		// Delete-heavy: repeated deletes of the same keys must miss, so
		// the miss split is exercised deterministically.
		Mix:         workload.Mix{LookupPct: 50, DeletePct: 50},
		Duration:    250 * time.Millisecond,
		SampleEvery: 50 * time.Millisecond,
	}
	res, err := RunIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatal("run without DisableObs must carry a counter snapshot")
	}
	if res.Obs.Get(obs.EvExFree)+res.Obs.Get(obs.EvExHandover) == 0 {
		t.Fatal("deletes ran but no exclusive acquisitions were counted")
	}
	if res.PerOpMiss[workload.OpDelete] == 0 {
		t.Fatal("repeated deletes must record misses")
	}
	for op, miss := range res.PerOpMiss {
		if miss > res.PerOp[op] {
			t.Fatalf("op %d: misses %d exceed ops %d", op, miss, res.PerOp[op])
		}
	}
	if res.Timeline == nil || len(res.Timeline.Ops) == 0 {
		t.Fatal("timeline sampling was on but no intervals collected")
	}
	var sum uint64
	for _, n := range res.Timeline.Ops {
		sum += n
	}
	if sum > res.Ops {
		t.Fatalf("timeline sum %d exceeds total ops %d", sum, res.Ops)
	}

	cfg.DisableObs = true
	cfg.SampleEvery = -1
	res, err = RunIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs != nil {
		t.Fatal("DisableObs run must not carry a snapshot")
	}
	if res.Timeline != nil {
		t.Fatal("negative SampleEvery must disable the timeline")
	}
}

func TestMicroObsCounters(t *testing.T) {
	res, err := RunMicro(MicroConfig{
		Scheme:   "OptiQL",
		Threads:  2,
		Locks:    1,
		ReadPct:  50,
		Duration: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatal("micro run must carry a counter snapshot")
	}
	if got, want := res.Obs.Get(obs.EvExFree)+res.Obs.Get(obs.EvExHandover), res.Writes; got != want {
		t.Fatalf("exclusive acquisitions %d != writes %d", got, want)
	}

	res, err = RunMicro(MicroConfig{
		Scheme:     "OptiQL",
		Threads:    1,
		Duration:   20 * time.Millisecond,
		DisableObs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs != nil {
		t.Fatal("DisableObs micro run must not carry a snapshot")
	}
}

// TestIndexLiveSource wires a LiveSource into a run and scrapes
// /metrics while (and after) it executes.
func TestIndexLiveSource(t *testing.T) {
	src := &obs.LiveSource{}
	srv := httptest.NewServer(obs.NewMux(src))
	defer srv.Close()

	_, err := RunIndex(IndexConfig{
		Index:        "btree",
		Scheme:       "OptiQL",
		Threads:      2,
		Records:      2000,
		Distribution: "uniform",
		KeySpace:     workload.Dense,
		Mix:          workload.UpdateOnly,
		Duration:     100 * time.Millisecond,
		Live:         src,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := string(body)
	if !strings.Contains(s, "optiql_ops_total") || strings.Contains(s, "optiql_ops_total 0\n") {
		t.Fatalf("/metrics did not serve live ops:\n%s", s)
	}
	if !strings.Contains(s, `optiql_lock_events_total{event="ex_acquire_free"}`) {
		t.Fatalf("/metrics missing lock counters:\n%s", s)
	}
}

// TestReportJSON checks the -json path end to end at the library
// level: an IndexResult renders to valid JSON with config, counters,
// timeline and latency sections.
func TestReportJSON(t *testing.T) {
	res, err := RunIndex(IndexConfig{
		Index:        "art",
		Scheme:       "OptiQL",
		Threads:      2,
		Records:      2000,
		Distribution: "selfsimilar",
		KeySpace:     workload.Dense,
		Mix:          workload.Balanced,
		Duration:     150 * time.Millisecond,
		SampleEvery:  50 * time.Millisecond,
		Latency:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := res.Report("indexbench").Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{"tool", "host", "config", "ops", "mops", "counters", "timeline", "latency", "extra"} {
		if _, ok := back[key]; !ok {
			t.Fatalf("report missing %q:\n%s", key, buf.String())
		}
	}
	counters := back["counters"].(map[string]any)
	if len(counters) != int(obs.NumEvents) {
		t.Fatalf("counters has %d entries, want %d", len(counters), obs.NumEvents)
	}
}
