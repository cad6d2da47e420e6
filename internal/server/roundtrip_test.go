package server

import (
	"context"
	"testing"
	"time"

	"optiql/internal/indextest"
	"optiql/internal/server/wire"
)

// pipelineWindow is the number of GETs each round trip keeps in
// flight: one Flush, then one Recv per request.
const pipelineWindow = 32

// pipelineKeys is how many keys the round-trip fixtures preload.
const pipelineKeys = 1024

// startPipelineClient starts a loopback server preloaded with keys
// 1..pipelineKeys and returns a client on it, armed with a timeout the
// way load generators run it.
func startPipelineClient(tb testing.TB) *wire.Client {
	tb.Helper()
	s, err := New(Config{Addr: "127.0.0.1:0", Scheme: testScheme()})
	if err != nil {
		tb.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	cl, err := wire.Dial(addr.String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	cl.SetTimeout(30 * time.Second)
	for k := uint64(1); k <= pipelineKeys; k++ {
		if err := cl.Send(wire.Put(k, k*3)); err != nil {
			tb.Fatal(err)
		}
	}
	for range pipelineKeys {
		if resp, err := cl.Recv(); err != nil || resp.Status != wire.StatusOK {
			tb.Fatalf("preload: %+v, %v", resp, err)
		}
	}
	return cl
}

// pipelineGets sends n GETs starting at key index *next, flushes once,
// then receives and checks every answer.
func pipelineGets(tb testing.TB, cl *wire.Client, n int, next *uint64) {
	for i := 0; i < n; i++ {
		if err := cl.Send(wire.Get(*next%pipelineKeys + 1)); err != nil {
			tb.Fatal(err)
		}
		*next += 7
	}
	if err := cl.Flush(); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		resp, err := cl.Recv()
		if err != nil || resp.Status != wire.StatusOK {
			tb.Fatalf("get: %+v, %v", resp, err)
		}
	}
}

// TestPipelineGetAllocs pins the allocation budget of the whole
// client→server→client GET path on loopback: client encode and
// request FIFO, server decode, inline read, response queue and encode,
// client decode. Allocations are counted process-wide over whole
// windows, so both ends' goroutines are included.
func TestPipelineGetAllocs(t *testing.T) {
	if indextest.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cl := startPipelineClient(t)
	var next uint64
	pipelineGets(t, cl, pipelineWindow, &next) // warm buffers and pools
	const windows = 400                        // 12,800 GETs
	perWindow := testing.AllocsPerRun(windows, func() {
		pipelineGets(t, cl, pipelineWindow, &next)
	})
	if perOp := perWindow / pipelineWindow; perOp >= 0.1 {
		t.Fatalf("pipelined GET round trip allocates %.3f objects/op, want < 0.1", perOp)
	}
}

// BenchmarkClientPipelineGet is the client→server round-trip rung of
// the layer ladder: GETs pipelined pipelineWindow deep through
// wire.Client against a loopback Server, per operation.
func BenchmarkClientPipelineGet(b *testing.B) {
	cl := startPipelineClient(b)
	var next uint64
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += pipelineWindow {
		pipelineGets(b, cl, min(pipelineWindow, b.N-done), &next)
	}
}
