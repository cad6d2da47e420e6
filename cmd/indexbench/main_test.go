package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"optiql/internal/indextest"
	"optiql/internal/obs"
	"optiql/internal/server"
)

// TestJSONStdoutIsOneReport runs the command with every informational
// side channel on (-obs, -sample, -trace) and -json -, in-process and
// against a server over -net: stdout must decode as exactly one
// obs.Report, and the informational lines must land on stderr.
func TestJSONStdoutIsOneReport(t *testing.T) {
	// Optimistic reads race by design; under -race use a pessimistic
	// scheme (see indextest.SkipIfOptimisticRace).
	scheme := "OptiQL"
	if indextest.RaceEnabled {
		scheme = "MCS-RW"
	}
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	for name, extra := range map[string][]string{
		"index": nil,
		"net":   {"-net", addr.String()},
	} {
		t.Run(name, func(t *testing.T) {
			tracePath := filepath.Join(t.TempDir(), "t.json")
			args := append([]string{"-scheme", scheme, "-threads", "2", "-records", "5000", "-duration", "200ms",
				"-obs", "127.0.0.1:0", "-sample", "64", "-trace", tracePath, "-json", "-"}, extra...)
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
			}
			dec := json.NewDecoder(&stdout)
			var rep obs.Report
			if err := dec.Decode(&rep); err != nil {
				t.Fatalf("stdout is not an obs.Report: %v", err)
			}
			if rep.Ops == 0 || !strings.HasPrefix(rep.Tool, "indexbench") {
				t.Fatalf("implausible report: tool=%q ops=%d", rep.Tool, rep.Ops)
			}
			if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
				t.Fatalf("stdout carries more than one JSON value (err=%v)", err)
			}
			for _, line := range []string{"observability endpoint on", "trace written to"} {
				if !strings.Contains(stderr.String(), line) {
					t.Fatalf("stderr missing %q:\n%s", line, stderr.String())
				}
			}
		})
	}
}
