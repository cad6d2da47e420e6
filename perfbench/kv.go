package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"optiql/internal/obs/trace"
	"optiql/internal/server"
	"optiql/internal/server/wire"
	"optiql/internal/workload"
)

// kvSpec is a networked workload: an in-process server.Server on
// loopback with its default configuration, driven over the wire
// protocol by one connection per worker.
type kvSpec struct {
	keys                    int // dense keys 1..keys, preloaded
	theta                   float64
	getPct, putPct, scanPct int
	scanLen                 int
	wal                     bool // WAL on the build directory's disk, default fsync policy
}

// satWindow is the pipelining window of each saturation-phase
// connection.
const satWindow = 32

// openLoopRate is the traced runs' open-loop request rate over all
// connections, 1/s (see README.md for why it sits far below the
// saturated throughput).
const openLoopRate = 20_000

// satShare is the share of an untraced kv run's measured time spent
// saturating; the latency phase takes the rest.
const satShare = 0.5

// tracedShare is the share of a traced run's measured time given to
// each of its phases: untraced and traced saturation, the open loop,
// and the WAL probe.
const tracedShare = 0.25

// connState is what one connection's load carries across phases.
type connState struct {
	pos uint64
	seq uint32
	// last[k] is the last value this connection's PUTs to key k were
	// acknowledged with (WAL probe only; 0 = never written).
	last []uint64
}

type kvRun struct {
	spec kvSpec
	opt  *options
	res  *result
	st   []stream
	cs   []connState
	dirs int // WAL directories created so far
}

func (k *kvRun) mix() workload.Mix {
	return workload.Mix{LookupPct: k.spec.getPct, UpdatePct: k.spec.putPct, ScanPct: k.spec.scanPct}
}

// next returns connection w's next request and its latency class.
func (k *kvRun) next(w int) (wire.Request, int) {
	c := &k.cs[w]
	j := c.pos & (streamLen - 1)
	c.pos++
	key := k.st[w].keys[j]
	switch k.st[w].kinds[j] {
	case workload.OpLookup:
		return wire.Get(key), clsRead
	case workload.OpUpdate:
		c.seq++
		return wire.Put(key, valueFor(key, uint32(w)<<31|c.seq&(1<<31-1))), clsWrite
	case workload.OpScan:
		return wire.Scan(key, uint32(k.spec.scanLen)), clsScan
	}
	panic("kv workloads issue only GET, PUT and SCAN")
}

// check verifies one response against its request. Refused or failed
// requests count as failures; wrong answers also as mismatches.
func (k *kvRun) check(w int, req *wire.Request, resp *wire.Response, t *tally) {
	t.attempted++
	if resp.Status == wire.StatusOverloaded || resp.Status == wire.StatusErr {
		t.bad("op %d key %d: status %d %s", req.Op, req.Key, resp.Status, resp.Err)
		return
	}
	switch req.Op {
	case wire.OpGet:
		if resp.Status != wire.StatusOK || !tagOK(req.Key, resp.Value) {
			t.miss("GET %d = (%d, %#x)", req.Key, resp.Status, resp.Value)
		}
	case wire.OpPut:
		if resp.Status != wire.StatusOK || resp.Inserted {
			t.miss("PUT %d of a preloaded key: status %d, inserted %v", req.Key, resp.Status, resp.Inserted)
		} else if k.spec.wal {
			k.cs[w].last[req.Key] = req.Value
		}
	case wire.OpScan:
		want := min(uint64(req.Max), uint64(k.spec.keys)-req.Key+1)
		if resp.Status != wire.StatusOK || uint64(len(resp.Pairs)) != want {
			t.miss("SCAN %d: status %d, %d pairs, want %d", req.Key, resp.Status, len(resp.Pairs), want)
			return
		}
		for i, p := range resp.Pairs {
			if p.Key != req.Key+uint64(i) || !tagOK(p.Key, p.Value) {
				t.miss("SCAN %d: pair %d = %+v", req.Key, i, p)
				return
			}
		}
	}
}

// kvServer is one running server instance and its WAL directory.
type kvServer struct {
	srv     *server.Server
	addr    string
	walDir  string
	stopped bool
}

// start creates a server, binds it to loopback and preloads every key
// from all connections in parallel, in batches.
func (k *kvRun) start(traced bool) (*kvServer, error) {
	cfg := server.Config{Addr: "127.0.0.1:0"}
	s := &kvServer{}
	if k.spec.wal {
		k.dirs++
		s.walDir = filepath.Join(walRoot(k.opt), fmt.Sprintf("run-%d-%d", os.Getpid(), k.dirs))
		if err := os.RemoveAll(s.walDir); err != nil {
			return nil, err
		}
		cfg.WALDir = s.walDir
	}
	if traced {
		// Every request is traced, so nested spans pair up exactly;
		// the rings keep the latest 64Ki spans per buffer.
		cfg.Trace = &trace.Config{SampleEvery: 1, BufCap: 1 << 16}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	addr, err := srv.Start()
	if err != nil {
		s.stop()
		return nil, err
	}
	s.addr = addr.String()
	if err := k.preload(s.addr); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// preloadBatch is the number of PUTs per preload BATCH request.
const preloadBatch = 1024

func (k *kvRun) preload(addr string) error {
	n := k.spec.keys
	errs := make([]error, k.opt.workers)
	var wg sync.WaitGroup
	for w := 0; w < k.opt.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = func() error {
				cl, err := wire.Dial(addr)
				if err != nil {
					return err
				}
				defer cl.Close()
				sub := make([]wire.Request, 0, preloadBatch)
				hi := (w + 1) * n / k.opt.workers
				for lo := w * n / k.opt.workers; lo < hi; lo += preloadBatch {
					sub = sub[:0]
					for i := lo; i < min(lo+preloadBatch, hi); i++ {
						key := uint64(i + 1)
						sub = append(sub, wire.Put(key, valueFor(key, 0)))
					}
					resp, err := cl.Do(wire.Batch(sub...))
					if err != nil {
						return fmt.Errorf("preload: %w", err)
					}
					for i, r := range resp.Sub {
						if r.Status != wire.StatusOK || !r.Inserted {
							return fmt.Errorf("preload: PUT %d answered status %d, inserted %v", sub[i].Key, r.Status, r.Inserted)
						}
					}
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stop shuts the server down gracefully (sealing its WAL).
func (s *kvServer) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// discard stops the server and removes its WAL directory.
func (s *kvServer) discard() error {
	err := s.stop()
	if s.walDir != "" {
		if rerr := os.RemoveAll(s.walDir); err == nil {
			err = rerr
		}
	}
	return err
}

// clientSpans are the benchmark's own spans around one connection's
// client calls in a traced saturation phase, plus a sample of the
// request/response stream for the wire codec replay.
type clientSpans struct {
	sendNs, sends int64
	flushNs       []int64
	flushOps      int64
	recvNs        []int64
	replay        []replayPair
}

type replayPair struct {
	req  wire.Request
	resp wire.Response
}

// replayCap is how many request/response pairs a traced connection
// keeps for the codec replay.
const replayCap = 4096

// inflight is a sent request awaiting its response.
type inflight struct {
	req  wire.Request
	cls  int
	sent time.Time // set when the phase times each operation
}

// loopCfg configures a closed-loop phase.
type loopCfg struct {
	window      int // requests in flight per connection
	warmup, dur time.Duration
	timed       bool          // time each operation from send to response
	spans       []clientSpans // per connection; nil unless traced
}

// loopOut is one closed-loop phase.
type loopOut struct {
	sl  sliced
	lat latencies // when timed
}

// closedLoop drives every connection closed-loop for warmup+dur and
// measures it in slices. Each connection refills to cfg.window
// requests in flight, flushes once, and reads responses until half the
// window is left (all of it for a window of one).
func (k *kvRun) closedLoop(addr string, cfg loopCfg) (loopOut, error) {
	collect()
	n := k.opt.workers
	cs := make([]counter, n)
	tallies := make([]tally, n)
	lats := make([]latencies, n)
	errs := make([]error, n)
	cur := newSliceIndex()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		lats[w] = make(latencies, k.opt.slices)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sp *clientSpans
			if cfg.spans != nil {
				sp = &cfg.spans[w]
			}
			errs[w] = k.closedLoopConn(addr, w, cfg.window, cfg.timed, &cs[w], &tallies[w], lats[w], cur, &stop, sp)
			if errs[w] != nil {
				stop.Store(true)
			}
		}(w)
	}
	out := loopOut{lat: make(latencies, k.opt.slices)}
	out.sl = measureSlices(cs, cur, cfg.warmup, cfg.dur/time.Duration(k.opt.slices), k.opt.slices)
	stop.Store(true)
	wg.Wait()
	for w := range tallies {
		k.res.tally(&tallies[w])
		if errs[w] != nil {
			return out, errs[w]
		}
		for s := range out.lat {
			for c := range out.lat[s] {
				out.lat[s][c] = append(out.lat[s][c], lats[w][s][c]...)
			}
		}
	}
	return out, nil
}

func (k *kvRun) closedLoopConn(addr string, w, window int, timed bool, cnt *counter, t *tally,
	lat latencies, cur *atomic.Int32, stop *atomic.Bool, sp *clientSpans) error {
	cl, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	cl.SetTimeout(30 * time.Second)
	q := make([]inflight, window)
	head, n := 0, 0
	var ops uint64
	recv := func(slice int32) error {
		traced := sp != nil && slice >= 0
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		resp, err := cl.Recv()
		if err != nil {
			t.bad("recv: %v", err)
			return err
		}
		in := &q[head]
		if timed && slice >= 0 {
			lat[slice][in.cls] = append(lat[slice][in.cls], int64(time.Since(in.sent)))
		}
		if traced {
			sp.recvNs = append(sp.recvNs, int64(time.Since(t0)))
			if len(sp.replay) < replayCap {
				sp.replay = append(sp.replay, replayPair{in.req, resp})
			}
		}
		k.check(w, &in.req, &resp, t)
		head = (head + 1) % window
		n--
		ops++
		return nil
	}
	for !stop.Load() {
		slice := cur.Load()
		traced := sp != nil && slice >= 0
		sent := 0
		for n < window {
			req, cls := k.next(w)
			var t0 time.Time
			if timed || traced {
				t0 = time.Now()
			}
			if err := cl.Send(req); err != nil {
				return err
			}
			if traced {
				sp.sendNs += int64(time.Since(t0))
				sp.sends++
			}
			q[(head+n)%window] = inflight{req, cls, t0}
			n++
			sent++
		}
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		if traced {
			sp.flushNs = append(sp.flushNs, int64(time.Since(t0)))
			sp.flushOps += int64(sent)
		}
		for n > window/2 {
			if err := recv(slice); err != nil {
				return err
			}
		}
		cnt.n.Store(ops)
	}
	for n > 0 {
		if err := recv(-1); err != nil {
			return err
		}
	}
	cnt.n.Store(ops)
	return nil
}

// verify checks the server's final state over the wire: a full scan
// finds exactly keys 1..keys in order with tagged values. With a WAL
// it then checks every written key's live value
// against the connections' last acknowledged writes, restarts the
// server on the same WAL directory and checks the replayed state
// reproduces each of those values.
func (k *kvRun) verify(s *kvServer) error {
	r := k.res
	cl, err := wire.Dial(s.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	count := 0
	for start := uint64(1); ; {
		resp, err := cl.Do(wire.Scan(start, wire.MaxScan))
		if err != nil {
			return fmt.Errorf("final scan: %w", err)
		}
		for i, p := range resp.Pairs {
			r.Attempted++
			if p.Key != start+uint64(i) || !tagOK(p.Key, p.Value) {
				r.fail("final scan from %d: pair %d = %+v", start, i, p)
			}
		}
		count += len(resp.Pairs)
		if len(resp.Pairs) < wire.MaxScan {
			break
		}
		start += wire.MaxScan
	}
	r.Attempted += 2
	if count != k.spec.keys {
		r.fail("final scan: %d keys resident, want %d", count, k.spec.keys)
	}
	if n := s.srv.Len(); n != k.spec.keys {
		r.fail("final Len: %d keys, want %d", n, k.spec.keys)
	}
	if !k.spec.wal {
		return nil
	}

	var keys []uint64
	for key := 1; key <= k.spec.keys; key++ {
		for w := range k.cs {
			if k.cs[w].last[key] != 0 {
				keys = append(keys, uint64(key))
				break
			}
		}
	}
	live, err := getAll(cl, keys)
	if err != nil {
		return err
	}
	for i, key := range keys {
		r.Attempted++
		acked := false
		for w := range k.cs {
			acked = acked || k.cs[w].last[key] == live[i]
		}
		if !acked {
			r.fail("key %d holds %#x, which no connection's last acknowledged PUT wrote", key, live[i])
		}
	}
	cl.Close()
	if err := s.stop(); err != nil {
		return err
	}

	t0 := time.Now()
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", WALDir: s.walDir})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	re := &kvServer{srv: srv, walDir: s.walDir}
	defer re.discard()
	addr, err := srv.Start()
	if err != nil {
		return err
	}
	r.Phases["reopen_s"] = time.Since(t0).Seconds()
	rc, err := wire.Dial(addr.String())
	if err != nil {
		return err
	}
	defer rc.Close()
	replayed, err := getAll(rc, keys)
	if err != nil {
		return err
	}
	for i, key := range keys {
		r.Attempted++
		if replayed[i] != live[i] {
			r.fail("after reopen key %d holds %#x, last acknowledged %#x", key, replayed[i], live[i])
		}
	}
	r.Attempted++
	if n := srv.Len(); n != k.spec.keys {
		r.fail("after reopen: %d keys resident, want %d", n, k.spec.keys)
	}
	return nil
}

// getAll reads the given keys over a pipelined connection; a missing
// key reads as 0, which no tagged value equals.
func getAll(cl *wire.Client, keys []uint64) ([]uint64, error) {
	out := make([]uint64, 0, len(keys))
	for lo := 0; lo < len(keys); lo += satWindow {
		chunk := keys[lo:min(lo+satWindow, len(keys))]
		for _, key := range chunk {
			if err := cl.Send(wire.Get(key)); err != nil {
				return nil, err
			}
		}
		for range chunk {
			resp, err := cl.Recv()
			if err != nil {
				return nil, err
			}
			out = append(out, resp.Value)
		}
	}
	return out, nil
}

// prepare generates the connections' operation streams.
func (k *kvRun) prepare() {
	dist := workload.Distribution(workload.NewUniform(uint64(k.spec.keys)))
	if k.spec.theta > 0 {
		dist = workload.NewZipfian(uint64(k.spec.keys), k.spec.theta)
	}
	for w := 0; w < k.opt.workers; w++ {
		k.st = append(k.st, genStream(workerSeed(k.opt.seed, w), dist, workload.Dense, k.mix()))
		if k.spec.wal {
			k.cs[w].last = make([]uint64, k.spec.keys+1)
		}
	}
}

// runKV runs a networked workload.
func runKV(spec kvSpec, opt *options) (*result, error) {
	k := &kvRun{spec: spec, opt: opt, res: newResult(), cs: make([]connState, opt.workers)}
	r := k.res
	var setups []float64
	var s *kvServer
	for rep := 0; rep < opt.setupReps; rep++ {
		if s != nil {
			if err := s.discard(); err != nil {
				return nil, err
			}
			s = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = k.start(false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups), len(setups))
	r.set("mem_bytes_per_key", heapPerKey(spec.keys), spec.keys)
	k.prepare()

	if !opt.traced {
		sat, err := k.closedLoop(s.addr, loopCfg{window: satWindow, warmup: opt.warmup,
			dur: time.Duration(satShare * float64(opt.measure))})
		if err != nil {
			s.discard()
			return nil, err
		}
		lat, err := k.closedLoop(s.addr, loopCfg{window: 1, warmup: opt.warmup / 2,
			dur: time.Duration((1 - satShare) * float64(opt.measure)), timed: true})
		if err != nil {
			s.discard()
			return nil, err
		}
		r.Phases["saturation_s"] = sat.sl.proc.wall.Seconds()
		r.Phases["latency_s"] = lat.sl.proc.wall.Seconds()
		r.setSliced(sat.sl)
		r.Series["latency_ops_per_s"] = lat.sl.rates
		r.setLatency(lat.lat, spec.scanPct > 0)
	} else {
		var err error
		if s, err = k.traced(s); err != nil {
			return nil, err
		}
	}
	err := k.verify(s)
	if derr := s.discard(); err == nil {
		err = derr
	}
	if err == nil && opt.traced {
		err = walProbe(opt, r, time.Duration(tracedShare*float64(opt.measure)))
	}
	return r, err
}
