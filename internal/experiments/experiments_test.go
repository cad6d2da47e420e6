package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"
)

// tinyOptions keep each experiment to a fraction of a second.
func tinyOptions(buf *strings.Builder) Options {
	return Options{
		Threads:   []int{1, 2},
		Duration:  20 * time.Millisecond,
		Runs:      1,
		Records:   5000,
		SimCycles: 50_000,
		Out:       buf,
	}
}

// simDigests pins the SHA-256 of each simulated experiment's output at
// tinyOptions. The simulator is seeded, so the tables repeat byte for
// byte; a refactor of internal/sim that changes any cell fails here.
var simDigests = map[string]string{
	"simfig6":     "34f6806e9412c08ca74e3a2526962b810a0f7b6dd56fca4bbd081507cf9086d3",
	"simfig7":     "4482a0d002cc03221d7f830b8921daec253705a5578a138674e2ac8d7a2b1e1a",
	"simtable1":   "4f945c39e073c0127a10be2596b1ea18aa5f5ca38c69548b3e252b3d4841a69d",
	"simfig8":     "40b6878ff09239c52c05c62967caf644018c8a271fa578234fd9ac7f7ac07459",
	"simfig9":     "cb1d3c1cd2f5c14ffd633d409bfef90dddbb71d8bb918867962dd9853801c45c",
	"simfairness": "88f71440a432b5163546811b496f70ac494654a1044b5b78d9d79fe286c490f3",
}

func TestEveryExperimentRunsAndPrints(t *testing.T) {
	want := map[string]string{
		"fig1":        "Figure 1",
		"fig6":        "Figure 6",
		"fig7":        "Figure 7",
		"table1":      "Table 1",
		"fig8":        "Figure 8",
		"fig9":        "Figure 9",
		"fig10":       "Figure 10",
		"fig11":       "Figure 11",
		"fig12":       "Figure 12",
		"fig13":       "Figure 13",
		"fairness":    "Fairness",
		"simfig6":     "Figure 6 (simulated",
		"simfig7":     "Figure 7 (simulated",
		"simtable1":   "Table 1 (simulated",
		"simfig8":     "Figure 8 (simulated",
		"simfig9":     "Figure 9 (simulated",
		"simfairness": "Fairness (simulated",
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			fn, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var buf strings.Builder
			if err := fn(tinyOptions(&buf)); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, want[name]) {
				t.Fatalf("output missing header %q:\n%s", want[name], out)
			}
			if !strings.Contains(out, "OptiQL") {
				t.Fatalf("output has no OptiQL column:\n%s", out)
			}
			if !strings.HasPrefix(name, "sim") {
				return
			}
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != simDigests[name] {
				t.Fatalf("output digest %s, want %s:\n%s", got, simDigests[name], out)
			}
		})
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if fn, err := ByName("all"); err != nil || fn == nil {
		t.Fatal("all not resolvable")
	}
}

func TestParseThreads(t *testing.T) {
	got, err := ParseThreads("1, 20,40")
	if err != nil || len(got) != 3 || got[1] != 20 {
		t.Fatalf("ParseThreads = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "a", "1,,x"} {
		if _, err := ParseThreads(bad); err == nil {
			t.Fatalf("ParseThreads(%q) accepted", bad)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.filled()
	if len(o.Threads) == 0 || o.MaxThreads != o.Threads[len(o.Threads)-1] {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if o.Duration == 0 || o.Runs == 0 || o.Records == 0 || o.Out == nil {
		t.Fatalf("defaults missing: %+v", o)
	}
}
