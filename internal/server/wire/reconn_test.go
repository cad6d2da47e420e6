package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"optiql/internal/obs"
)

// startStub runs a scripted server: handle is invoked per accepted
// connection and owns it completely.
func startStub(t *testing.T, handle func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go handle(nc)
		}
	}()
	return ln.Addr().String()
}

// answer reads one request frame from br and writes one response.
func answer(nc net.Conn, br *bufio.Reader, status byte) error {
	var buf []byte
	payload, err := ReadFrame(br, &buf)
	if err != nil {
		return err
	}
	req, err := ParseRequest(payload)
	if err != nil {
		return err
	}
	resp := Response{Status: status}
	if status == StatusOK && req.Op == OpGet {
		resp.Value = req.Key * 2
	}
	frame, err := AppendResponse(nil, &req, &resp)
	if err != nil {
		return err
	}
	_, err = nc.Write(frame)
	return err
}

// TestClientPoisonedByDecodeError: a mid-pipeline garbage frame must
// poison the client — the second Recv returns the same sticky error
// immediately instead of desynchronizing the request/response pairing.
func TestClientPoisonedByDecodeError(t *testing.T) {
	addr := startStub(t, func(nc net.Conn) {
		defer nc.Close()
		br := bufio.NewReader(nc)
		var buf []byte
		for i := 0; i < 2; i++ {
			if _, err := ReadFrame(br, &buf); err != nil {
				return
			}
		}
		// Answer the first request with a syntactically broken response:
		// an OK GET frame with a truncated value.
		nc.Write([]byte{0, 0, 0, 3, StatusOK, 1, 2})
		// Then a perfectly valid frame, which the poisoned client must
		// never consume.
		req := Get(7)
		frame, _ := AppendResponse(nil, &req, &Response{Status: StatusOK, Value: 14})
		nc.Write(frame)
		time.Sleep(50 * time.Millisecond)
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Send(Get(7)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Send(Get(8)); err != nil {
		t.Fatal(err)
	}
	_, err1 := cl.Recv()
	if err1 == nil {
		t.Fatal("broken response decoded cleanly")
	}
	if cl.Err() == nil {
		t.Fatal("decode error did not poison the client")
	}
	start := time.Now()
	_, err2 := cl.Recv()
	if err2 == nil || !errors.Is(err2, cl.Err()) {
		t.Fatalf("second Recv = %v, want sticky %v", err2, err1)
	}
	if time.Since(start) > 20*time.Millisecond {
		t.Fatal("poisoned Recv touched the network")
	}
	if err := cl.Send(Get(9)); err == nil {
		t.Fatal("poisoned Send accepted a request")
	}
	if _, err := cl.Do(Get(9)); err == nil {
		t.Fatal("poisoned Do accepted a request")
	}
}

// TestClientEncodingErrorDoesNotPoison: an unencodable request is the
// caller's bug; the stream is untouched and stays usable.
func TestClientEncodingErrorDoesNotPoison(t *testing.T) {
	addr := startStub(t, func(nc net.Conn) {
		defer nc.Close()
		br := bufio.NewReader(nc)
		for answer(nc, br, StatusOK) == nil {
		}
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Send(Scan(0, MaxScan+1)); err == nil {
		t.Fatal("oversized scan encoded")
	}
	if cl.Err() != nil {
		t.Fatalf("encoding error poisoned the client: %v", cl.Err())
	}
	resp, err := cl.Do(Get(21))
	if err != nil || resp.Status != StatusOK || resp.Value != 42 {
		t.Fatalf("Do after encoding error = %+v, %v", resp, err)
	}
}

// TestClientTimeout: a server that never answers must not pin the
// caller past the configured deadline. The deadline bounds socket I/O,
// not buffered data: a Recv whose response already sits in the read
// buffer succeeds long after the last armed deadline has passed, while
// the next Recv, which must read, still times out.
func TestClientTimeout(t *testing.T) {
	const timeout = 60 * time.Millisecond
	t.Run("unanswered", func(t *testing.T) {
		addr := startStub(t, func(nc net.Conn) {
			io.Copy(io.Discard, nc) // read forever, answer never
			nc.Close()
		})
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.SetTimeout(timeout)
		start := time.Now()
		_, err = cl.Do(Get(1))
		if err == nil {
			t.Fatal("Do returned without a response")
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("timeout error = %v", err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("timeout took %v", d)
		}
		if !Retryable(err) {
			t.Fatal("deadline error classified fatal")
		}
	})
	t.Run("buffered", func(t *testing.T) {
		addr := startStub(t, func(nc net.Conn) {
			defer nc.Close()
			br := bufio.NewReader(nc)
			var buf, out []byte
			for i := 0; i < 3; i++ {
				payload, err := ReadFrame(br, &buf)
				if err != nil {
					return
				}
				req, err := ParseRequest(payload)
				if err != nil {
					return
				}
				if i < 2 { // answer the first two in one write, never the third
					resp := Response{Status: StatusOK, Value: req.Key * 2}
					if out, err = AppendResponse(out, &req, &resp); err != nil {
						return
					}
				}
			}
			nc.Write(out)
			io.Copy(io.Discard, nc)
		})
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.SetTimeout(timeout)
		for k := uint64(1); k <= 3; k++ {
			if err := cl.Send(Get(k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(timeout / 3) // both answers are in the socket before the first read
		if resp, err := cl.Recv(); err != nil || resp.Value != 2 {
			t.Fatalf("first Recv = %+v, %v", resp, err)
		}
		if !cl.frameBuffered() {
			t.Fatal("second response not buffered by the first read")
		}
		time.Sleep(2 * timeout) // the deadline armed for the first read has passed
		if resp, err := cl.Recv(); err != nil || resp.Value != 4 {
			t.Fatalf("buffered Recv after the deadline = %+v, %v", resp, err)
		}
		start := time.Now()
		_, err = cl.Recv()
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("blocking Recv error = %v, want a deadline error", err)
		}
		if d := time.Since(start); d < timeout/2 || d > 2*time.Second {
			t.Fatalf("blocking Recv timed out after %v, want about %v", d, timeout)
		}
	})
}

// TestReconnClientHealsResets: a server that kills every connection
// after one response forces a reconnect per request; reads must flow
// anyway, with the reconnects visible in stats and obs counters.
func TestReconnClientHealsResets(t *testing.T) {
	addr := startStub(t, func(nc net.Conn) {
		defer nc.Close()
		br := bufio.NewReader(nc)
		answer(nc, br, StatusOK)
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetLinger(0) // RST, not clean EOF
		}
	})
	reg := obs.NewRegistry()
	rc := &ReconnClient{Addr: addr, Timeout: 2 * time.Second, BackoffMin: time.Millisecond, BackoffMax: 4 * time.Millisecond, Counters: reg.NewCounters()}
	defer rc.Close()
	const n = 10
	for i := uint64(1); i <= n; i++ {
		resp, err := rc.Do(Get(i))
		if err != nil || resp.Status != StatusOK || resp.Value != i*2 {
			t.Fatalf("Do(Get(%d)) = %+v, %v", i, resp, err)
		}
	}
	st := rc.Stats()
	if st.Dials < 2 || st.Reconnects != st.Dials-1 {
		t.Fatalf("stats = %+v, expected reconnects", st)
	}
	snap := reg.Snapshot()
	if snap.Get(obs.EvCliReconnect) != st.Reconnects {
		t.Fatalf("obs cli_reconnect = %d, stats say %d", snap.Get(obs.EvCliReconnect), st.Reconnects)
	}
}

// TestReconnClientBacksOffOverload: Overloaded answers are retried
// with backoff on the same connection until the server admits.
func TestReconnClientBacksOffOverload(t *testing.T) {
	var served atomic.Int64
	const shedFirst = 3
	addr := startStub(t, func(nc net.Conn) {
		defer nc.Close()
		br := bufio.NewReader(nc)
		for {
			st := byte(StatusOK)
			if served.Add(1) <= shedFirst {
				st = StatusOverloaded
			}
			if answer(nc, br, st) != nil {
				return
			}
		}
	})
	reg := obs.NewRegistry()
	rc := &ReconnClient{Addr: addr, BackoffMin: time.Millisecond, BackoffMax: 4 * time.Millisecond, Counters: reg.NewCounters()}
	defer rc.Close()
	resp, err := rc.Do(Put(5, 50))
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("Do through overload = %+v, %v", resp, err)
	}
	st := rc.Stats()
	if st.Overloaded != shedFirst || st.Retries < shedFirst {
		t.Fatalf("stats = %+v, want %d overloads", st, shedFirst)
	}
	if st.Dials != 1 {
		t.Fatalf("overload retries reconnected: %+v", st)
	}
	if got := reg.Snapshot().Get(obs.EvCliOverloaded); got != shedFirst {
		t.Fatalf("obs cli_overloaded = %d", got)
	}
}

// TestReconnClientSurfacesIndeterminateWrites: a write whose
// connection dies before the response must NOT be silently retried —
// the server may have applied it.
func TestReconnClientSurfacesIndeterminateWrites(t *testing.T) {
	var writesSeen atomic.Int64
	addr := startStub(t, func(nc net.Conn) {
		defer nc.Close()
		br := bufio.NewReader(nc)
		var buf []byte
		if _, err := ReadFrame(br, &buf); err != nil {
			return
		}
		writesSeen.Add(1)
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		// Close without answering: the client cannot know whether the
		// write was applied.
	})
	rc := &ReconnClient{Addr: addr, Timeout: time.Second, MaxRetries: 5, BackoffMin: time.Millisecond}
	defer rc.Close()
	_, err := rc.Do(Put(1, 2))
	if err == nil {
		t.Fatal("indeterminate write reported success")
	}
	// Give any (buggy) retry a moment to land, then check exactly one
	// request ever reached a server connection.
	time.Sleep(50 * time.Millisecond)
	if n := writesSeen.Load(); n != 1 {
		t.Fatalf("server saw %d attempts of an indeterminate write", n)
	}
	if rc.Stats().Failures != 1 {
		t.Fatalf("stats = %+v", rc.Stats())
	}
}

// TestReconnClientRetriesDialFailures: dial errors are pre-send, so
// even writes retry them; a server that appears after a few failures
// gets the request.
func TestReconnClientRetriesDialFailures(t *testing.T) {
	addr := startStub(t, func(nc net.Conn) {
		defer nc.Close()
		br := bufio.NewReader(nc)
		for answer(nc, br, StatusOK) == nil {
		}
	})
	var dials atomic.Int64
	rc := &ReconnClient{
		Addr:       addr,
		BackoffMin: time.Millisecond,
		DialFunc: func(a string) (net.Conn, error) {
			if dials.Add(1) <= 2 {
				return nil, syscall.ECONNREFUSED
			}
			return net.Dial("tcp", a)
		},
	}
	defer rc.Close()
	resp, err := rc.Do(Put(9, 90))
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("Do through dial failures = %+v, %v", resp, err)
	}
	if rc.Stats().Retries != 2 {
		t.Fatalf("stats = %+v, want 2 retries", rc.Stats())
	}
}

// TestReconnClientBoundedRetries: a permanently dead address fails
// after exactly MaxRetries+1 attempts, not forever.
func TestReconnClientBoundedRetries(t *testing.T) {
	var dials atomic.Int64
	rc := &ReconnClient{
		Addr:       "127.0.0.1:1",
		MaxRetries: 3,
		BackoffMin: time.Millisecond,
		BackoffMax: 2 * time.Millisecond,
		DialFunc: func(string) (net.Conn, error) {
			dials.Add(1)
			return nil, syscall.ECONNREFUSED
		},
	}
	_, err := rc.Do(Get(1))
	if err == nil {
		t.Fatal("dead address succeeded")
	}
	if n := dials.Load(); n != 4 {
		t.Fatalf("%d dial attempts, want MaxRetries+1 = 4", n)
	}
}

func TestRetryableTaxonomy(t *testing.T) {
	retryable := []error{
		io.EOF, io.ErrUnexpectedEOF, net.ErrClosed, os.ErrDeadlineExceeded,
		syscall.ECONNRESET, syscall.ECONNREFUSED, syscall.EPIPE, syscall.ECONNABORTED,
		&net.OpError{Op: "read", Err: syscall.ECONNRESET},
	}
	for _, err := range retryable {
		if !Retryable(err) {
			t.Errorf("Retryable(%v) = false", err)
		}
	}
	fatal := []error{
		nil,
		fmt.Errorf("wire: unknown opcode 9"),
		fmt.Errorf("wire: 3 trailing bytes after response"),
	}
	for _, err := range fatal {
		if Retryable(err) {
			t.Errorf("Retryable(%v) = true", err)
		}
	}
}

// TestStatusOverloadedRoundTrip covers the new status through the
// encoder/decoder for every opcode shape.
func TestStatusOverloadedRoundTrip(t *testing.T) {
	for _, req := range []Request{Get(1), Put(1, 2), Del(1), Scan(0, 8)} {
		frame, err := AppendResponse(nil, &req, &Response{Status: StatusOverloaded})
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		resp, err := ParseResponse(frame[4:], &req)
		if err != nil || resp.Status != StatusOverloaded {
			t.Fatalf("%+v: round trip = %+v, %v", req, resp, err)
		}
	}
	// Inside a batch, too.
	req := Batch(Put(1, 2), Get(3))
	resp := Response{Status: StatusOK, Sub: []Response{{Status: StatusOverloaded}, {Status: StatusOK, Value: 6}}}
	frame, err := AppendResponse(nil, &req, &resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseResponse(frame[4:], &req)
	if err != nil || got.Sub[0].Status != StatusOverloaded || got.Sub[1].Value != 6 {
		t.Fatalf("batch round trip = %+v, %v", got, err)
	}
}

// TestBackoffJitterBounds: every drawn delay lies in [limit/2, limit]
// for the limit in force when it was drawn, and the limit itself
// follows the truncated doubling schedule min, 2min, 4min, ..., max.
func TestBackoffJitterBounds(t *testing.T) {
	rc := &ReconnClient{
		BackoffMin: time.Millisecond,
		BackoffMax: 64 * time.Millisecond,
		Seed:       7,
	}
	rc.defaults()
	limit := rc.BackoffMin
	wantLimit := rc.BackoffMin
	for i := 0; i < 200; i++ {
		if limit != wantLimit {
			t.Fatalf("draw %d: limit %v, want %v", i, limit, wantLimit)
		}
		cur := limit
		d := rc.nextBackoff(&limit)
		if d < cur/2 || d > cur {
			t.Fatalf("draw %d: delay %v outside [%v, %v]", i, d, cur/2, cur)
		}
		if wantLimit < rc.BackoffMax {
			wantLimit *= 2
			if wantLimit > rc.BackoffMax {
				wantLimit = rc.BackoffMax
			}
		}
	}
	if limit != rc.BackoffMax {
		t.Fatalf("limit settled at %v, want BackoffMax %v", limit, rc.BackoffMax)
	}
}

// TestBackoffJitterDeterminism: a fixed Seed reproduces the exact
// delay schedule; a different seed diverges.
func TestBackoffJitterDeterminism(t *testing.T) {
	draw := func(seed uint64) []time.Duration {
		rc := &ReconnClient{
			BackoffMin: time.Millisecond,
			BackoffMax: 200 * time.Millisecond,
			Seed:       seed,
		}
		rc.defaults()
		limit := rc.BackoffMin
		out := make([]time.Duration, 64)
		for i := range out {
			out[i] = rc.nextBackoff(&limit)
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: same seed diverged: %v vs %v", i, a[i], b[i])
		}
	}
	c := draw(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestBackoffSeedZeroStillJitters: the wall-clock fallback seed must
// not collapse the jitter to a constant.
func TestBackoffSeedZeroStillJitters(t *testing.T) {
	rc := &ReconnClient{BackoffMin: time.Millisecond, BackoffMax: 256 * time.Millisecond}
	rc.defaults()
	if rc.seed == 0 {
		t.Fatal("defaults left the jitter stream unseeded")
	}
	limit := 128 * time.Millisecond // fixed limit: variation must come from jitter
	seen := map[time.Duration]bool{}
	for i := 0; i < 32; i++ {
		l := limit
		seen[rc.nextBackoff(&l)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("32 draws produced %d distinct delays", len(seen))
	}
}
