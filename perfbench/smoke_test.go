package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"optiql/internal/locks"
)

// benchmarkFile is the benchmark's declaration at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCatalog pins BENCHMARK.json to the metrics
// and workloads the command implements.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, declared []struct{ Name, Unit string }, impl []metricDef) {
		if len(declared) != len(impl) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command reports %d", kind, len(declared), len(impl))
		}
		for i := range min(len(declared), len(impl)) {
			if declared[i].Name != impl[i].Name || declared[i].Unit != impl[i].Unit {
				t.Errorf("%s %d: declared %+v, reported %+v", kind, i, declared[i], impl[i])
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the command has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
}

// tiny shrinks a run to a smoke test's size.
func tiny(t *testing.T, name string, traced bool) *options {
	return &options{
		workload: name, seed: 7, seconds: 1, traced: traced, buildDir: t.TempDir(),
		workers: 2, setupReps: 1, warmup: 50 * time.Millisecond,
		measure: 600 * time.Millisecond, slices: 3, keyScale: 0.01,
	}
}

// TestSmokeAllWorkloads runs every workload briefly, untraced and
// traced, and checks that each reports every metric BENCHMARK.json
// names (a layer it does not run as an explained 0), with no failures.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			names := bf.EndToEnd
			if traced {
				names = bf.PerLayer
			}
			res, err := workloads[w.Name](tiny(t, w.Name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, res.Failed, res.Attempted, res.Errors)
			}
			for _, m := range names {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
					continue
				}
				if v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.Name, traced, m.Name, v.Unit, m.Unit)
				}
				if !traced && v.Value <= 0 && v.Note == "" {
					t.Errorf("%s: end-to-end metric %s = %v", w.Name, m.Name, v.Value)
				}
			}
		}
	}
}

// faultyIndex returns a wrong value for every 97th key it looks up.
type faultyIndex struct{ index }

func (f faultyIndex) Lookup(c *locks.Ctx, k uint64) (uint64, bool) {
	v, ok := f.index.Lookup(c, k)
	if k%97 == 0 {
		v ^= 1 << 40
	}
	return v, ok
}

// TestPlantedFaultFailsTheRun plants a wrong-value fault under the
// embedded workload and checks the command reports it and exits
// nonzero.
func TestPlantedFaultFailsTheRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "embed-btree-hot", "--seed", "3", "--seconds", "1"}, &stdout, &stderr,
		func(o *options) {
			*o = *tiny(t, o.workload, false)
			o.wrap = func(idx index) index { return faultyIndex{idx} }
		})
	if code == 0 {
		t.Fatalf("exit code 0 with a planted fault; stderr: %s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var final struct {
		Correct           bool
		Attempted, Failed uint64
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("result line: %v (%q)", err, stdout.String())
	}
	if final.Correct || final.Failed == 0 || final.Attempted == 0 {
		t.Errorf("planted fault not reported: %+v", final)
	}
	if !strings.Contains(stderr.String(), "wrong answers") {
		t.Errorf("stderr does not name the wrong answers: %s", stderr.String())
	}
}

// TestCleanRunExitsZero is the planted-fault test's control.
func TestCleanRunExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "embed-btree-hot", "--seed", "3", "--seconds", "1"}, &stdout, &stderr,
		func(o *options) { *o = *tiny(t, o.workload, false) })
	if code != 0 {
		t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var final map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if len(final) != 4 || final["correct"] != true || final["failed"] != 0.0 {
		t.Errorf("result line: %v", final)
	}
}
