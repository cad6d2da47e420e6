package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"optiql/internal/server/wire"
)

// olOut is one open-loop phase: latencies timed from each request's
// due time, and how late the generator sent each request.
type olOut struct {
	lat  latencies // by slice of the schedule, from due times
	late []int64
	dur  time.Duration // the recorded part of the schedule
}

// olWarmup is the open-loop schedule's unrecorded lead-in.
const olWarmup = 500 * time.Millisecond

type olReq struct {
	req   wire.Request
	cls   int
	due   time.Time
	slice int // of the recorded schedule; -1 during the lead-in
}

// olConn is one open-loop connection: the pacer writes its requests
// and its receiver reads the responses.
type olConn struct {
	nc      net.Conn
	q       chan olReq  // requests in flight, in send order
	pending []byte      // frames not yet written
	dues    []time.Time // due times of the recorded pending requests
	out     olOut
	t       tally
	err     error
}

// openLoop sends requests at openLoopRate, evenly spaced and dealt round
// robin over the connections, for olWarmup+dur regardless of
// responses, and times each from when it was due.
func (k *kvRun) openLoop(addr string, dur time.Duration) (olOut, error) {
	collect()
	out := olOut{lat: make(latencies, k.opt.slices), dur: dur}
	conns := make([]*olConn, k.opt.workers)
	for w := range conns {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			for _, c := range conns[:w] {
				c.nc.Close()
			}
			return out, err
		}
		wire.TuneTCP(nc)
		// The queue bounds requests in flight per connection; it only
		// fills if the server falls far behind, and then the pacer
		// waits and its lateness shows it.
		conns[w] = &olConn{nc: nc, q: make(chan olReq, 1<<14), out: olOut{lat: make(latencies, k.opt.slices)}}
	}
	gap := float64(time.Second) / openLoopRate
	skip := int(olWarmup.Seconds() * openLoopRate)
	total := skip + int(dur.Seconds()*openLoopRate)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w, c := range conns {
		// Generous: a stalled server fails the run instead of hanging it.
		c.nc.SetReadDeadline(start.Add(olWarmup + dur + 30*time.Second))
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.receive(w, c)
		}()
	}
	paceErrs := make([]error, len(conns))
	for w, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(c.q)
			paceErrs[w] = k.pace(w, c, start, gap, skip, total)
		}()
	}
	wg.Wait()
	err := errors.Join(paceErrs...)
	for _, c := range conns {
		c.nc.Close()
		k.res.tally(&c.t)
		if err == nil && c.err != nil {
			err = fmt.Errorf("open loop: %w", c.err)
		}
		for sl := range out.lat {
			for cls := range out.lat[sl] {
				out.lat[sl][cls] = append(out.lat[sl][cls], c.out.lat[sl][cls]...)
			}
		}
		out.late = append(out.late, c.out.late...)
	}
	return out, err
}

// pace writes connection w's share of the schedule, requests w,
// w+n, w+2n, ... of the whole, as they fall due; requests already due
// when the pacer wakes go out in one write. It waits on a timerfd, not
// a Go timer: an idle Go runtime rounds a short sleep up to a
// millisecond, which would turn a steady rate into millisecond bursts,
// while a timerfd wakes the poller when it expires.
func (k *kvRun) pace(w int, c *olConn, start time.Time, gap float64, skip, total int) error {
	tm, err := newTimer()
	if err != nil {
		return err
	}
	defer tm.close()
	flush := func() error {
		now := time.Now()
		for _, due := range c.dues {
			c.out.late = append(c.out.late, int64(now.Sub(due)))
		}
		_, err := c.nc.Write(c.pending)
		c.pending, c.dues = c.pending[:0], c.dues[:0]
		return err
	}
	for i := w; i < total; i += k.opt.workers {
		due := start.Add(time.Duration(float64(i) * gap))
		if time.Until(due) > 0 {
			if len(c.pending) > 0 {
				if err := flush(); err != nil {
					return err
				}
			}
			for d := time.Until(due); d > 0; d = time.Until(due) {
				if err := tm.sleep(d); err != nil {
					return err
				}
			}
		}
		req, cls := k.next(w)
		if c.pending, err = wire.AppendRequest(c.pending, &req); err != nil {
			return err
		}
		r := olReq{req: req, cls: cls, due: due, slice: -1}
		if i >= skip {
			r.slice = (i - skip) * k.opt.slices / (total - skip)
			c.dues = append(c.dues, due)
		}
		c.q <- r
	}
	return flush()
}

// receive reads connection w's responses in order, checks each and
// records its latency from its due time. After a transport error it
// keeps draining the queue, counting each remaining request as failed.
func (k *kvRun) receive(w int, c *olConn) {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var fb wire.FrameBuf
	for r := range c.q {
		if c.err != nil {
			c.t.attempted++
			c.t.bad("open loop: request abandoned after %v", c.err)
			continue
		}
		var resp wire.Response
		payload, err := wire.ReadFrameBuf(br, &fb)
		if err == nil {
			resp, err = wire.ParseResponse(payload, &r.req)
			fb.Release()
		}
		done := time.Now()
		if err != nil {
			c.err = err
			c.t.attempted++
			c.t.bad("open loop recv: %v", err)
			continue
		}
		k.check(w, &r.req, &resp, &c.t)
		if r.slice >= 0 {
			c.out.lat[r.slice][r.cls] = append(c.out.lat[r.slice][r.cls], int64(done.Sub(r.due)))
		}
	}
}
