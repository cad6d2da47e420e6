// Command perfbench is the repository's benchmark: one seeded command
// that runs a named workload against the index, server, wire and WAL
// packages, checks every answer, and prints its metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced
// run (--trace 1) adds the benchmark's spans around each layer's calls
// and the layers' own counters, and prints the per-layer metrics. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// preceded by a detail line with sample counts, ratio bases, the
// measured phases and the conditions of the run. Any wrong answer makes
// the command exit nonzero. See README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"optiql/internal/workload"
)

// options configure one run. The flags set the first five; tests shrink
// the rest.
type options struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	buildDir string

	workers   int           // closed-loop workers or connections
	setupReps int           // set-ups per run; setup_s is their median
	warmup    time.Duration // run before measuring
	measure   time.Duration // measured time, split across phases
	slices    int           // slices per closed-loop phase
	keyScale  float64       // multiplies every key count (tests)
	wrap      func(index) index
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*options) (*result, error){
	"embed-btree-hot": func(o *options) (*result, error) {
		return runEmbed(embedSpec{kind: "btree", keys: o.scale(1_000_000), space: workload.Dense,
			theta: 0.99, mix: workload.Mix{LookupPct: 50, UpdatePct: 50}}, o)
	},
	"embed-art-sparse": func(o *options) (*result, error) {
		return runEmbed(embedSpec{kind: "art", keys: o.scale(2_000_000), space: workload.Sparse,
			mix: workload.Mix{LookupPct: 85, InsertPct: 10, ScanPct: 5}, scanLen: 16}, o)
	},
	"kv-read-scan": func(o *options) (*result, error) {
		return runKV(kvSpec{keys: o.scale(1_000_000), getPct: 90, putPct: 5, scanPct: 5, scanLen: 16}, o)
	},
}

func (o *options) scale(keys int) int {
	if o.keyScale > 0 {
		return max(int(float64(keys)*o.keyScale), 1000)
	}
	return keys
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run executes the command line and returns the exit code. tune, when
// not nil, adjusts the options after flag parsing (tests use it to
// shrink runs and plant faults).
func run(args []string, stdout, stderr io.Writer, tune func(*options)) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	o := &options{workers: 2, setupReps: 3, warmup: time.Second, slices: 12}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for a traced run reporting the per-layer metrics")
	fs.StringVar(&o.buildDir, "build-dir", ".bench_build", "scratch directory for WAL files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	o.traced = *trace == 1
	o.measure = time.Duration(o.seconds) * time.Second
	if tune != nil {
		tune(o)
	}
	if err := os.MkdirAll(o.buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	root, _ := os.Getwd()
	cond := readConditions(root, o.buildDir)
	res, err := runner(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	cond.Workload, cond.Seed, cond.Seconds, cond.Traced = o.workload, o.seed, o.seconds, o.traced
	cond.WarmupS, cond.SetupReps = o.warmup.Seconds(), o.setupReps
	res.Conditions = cond
	if err := emit(stdout, res, o.traced); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if res.Mismatches > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d wrong answers, first: %s\n", o.workload, res.Mismatches,
			strings.Join(res.Errors, "; "))
		return 1
	}
	return 0
}

// walRoot is where the WAL probe keeps its logs.
func walRoot(o *options) string { return filepath.Join(o.buildDir, "wal") }
