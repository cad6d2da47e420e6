package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"time"
)

// Client is a pipelined protocol client: Send queues any number of
// requests without waiting, Recv returns responses in request order. A
// Client is not safe for concurrent use — drive each connection from
// one goroutine, the same discipline the benchmark workers follow.
//
// A Client is poisoned by its first transport or decode error: once a
// frame is lost or misparsed the request/response pairing on the
// stream is unknowable, so every later Send/Recv/Do returns the same
// sticky error immediately instead of silently desynchronizing. The
// only recovery is a fresh connection (see ReconnClient).
type Client struct {
	nc      net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	pending reqRing // FIFO of unanswered requests
	rbuf    FrameBuf
	timeout time.Duration
	err     error // sticky; set by the first transport/decode failure
}

// Dial connects to a server at addr.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection. TCP connections get
// TCP_NODELAY and keep-alive probes: the protocol pipelines many small
// frames, so Nagle-delaying them costs latency for nothing, and
// keep-alives surface dead peers on otherwise idle connections.
func NewClient(nc net.Conn) *Client {
	TuneTCP(nc)
	return &Client{
		nc: nc,
		br: bufio.NewReaderSize(nc, 64<<10),
		bw: bufio.NewWriterSize(nc, 64<<10),
	}
}

// TuneTCP applies the transport settings both ends of the protocol
// want on a TCP connection: no Nagle delay (pipelined small frames)
// and keep-alive probes (dead-peer detection). It unwraps fault-
// injection or similar wrappers exposing Unwrap() net.Conn, and is a
// no-op on anything that is not ultimately a *net.TCPConn.
func TuneTCP(nc net.Conn) {
	for {
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
			tc.SetKeepAlive(true)
			tc.SetKeepAlivePeriod(30 * time.Second)
			return
		}
		u, ok := nc.(interface{ Unwrap() net.Conn })
		if !ok {
			return
		}
		nc = u.Unwrap()
	}
}

// SetTimeout bounds each subsequent blocking Recv (and the implicit
// flush before it) and each Flush with a deadline: a server that
// neither answers nor closes within d yields a timeout error instead
// of pinning the caller forever. Zero disables the bound.
//
// The deadline is armed only when the call has to touch the socket —
// a Flush with requests buffered, or a Recv whose response is not yet
// fully buffered. A Recv served entirely from already-received data
// cannot block, so it neither arms nor can fail with a timeout, however
// long ago the deadline was last armed.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// Err returns the sticky error poisoning this client, if any.
func (c *Client) Err() error { return c.err }

// poison records the first fatal error and returns it.
func (c *Client) poison(err error) error {
	if c.err == nil {
		c.err = err
	}
	return c.err
}

// Send encodes and buffers one request; call Flush (or Recv, which
// flushes first) to put it on the wire.
func (c *Client) Send(r Request) error {
	if c.err != nil {
		return c.err
	}
	// Encode straight into the write buffer's free space; the Write
	// below is then a self-copy (AppendRequest only allocates when the
	// frame outgrows what is left of the buffer).
	frame, err := AppendRequest(c.bw.AvailableBuffer(), &r)
	if err != nil {
		// Encoding errors are the caller's bug, not stream damage: the
		// request never touched the wire, so the client stays usable.
		return err
	}
	if _, err := c.bw.Write(frame); err != nil {
		return c.poison(err)
	}
	c.pending.push(r)
	return nil
}

// Flush writes all buffered requests to the connection. With nothing
// buffered it returns without touching the socket.
func (c *Client) Flush() error {
	if c.err != nil {
		return c.err
	}
	if c.bw.Buffered() == 0 {
		return nil
	}
	return c.flush()
}

// flush arms the deadline and flushes the write buffer.
func (c *Client) flush() error {
	c.armDeadline()
	if err := c.bw.Flush(); err != nil {
		return c.poison(err)
	}
	return nil
}

// Pending returns the number of sent-but-unanswered requests.
func (c *Client) Pending() int { return c.pending.n }

// armDeadline applies the per-request timeout to the connection.
func (c *Client) armDeadline() {
	if c.timeout > 0 {
		c.nc.SetDeadline(time.Now().Add(c.timeout))
	}
}

// frameBuffered reports whether a whole response frame is already in
// the read buffer, so reading it cannot block. It checks Buffered
// before peeking at the header, so the check itself never reads.
func (c *Client) frameBuffered() bool {
	n := c.br.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := c.br.Peek(4)
	return uint64(n-4) >= uint64(binary.BigEndian.Uint32(hdr))
}

// Recv flushes buffered requests and reads the response to the oldest
// pending one. Transport and decode errors poison the client: the
// stream can no longer be trusted to pair responses with requests.
func (c *Client) Recv() (Response, error) {
	if c.err != nil {
		return Response{}, c.err
	}
	if c.pending.n == 0 {
		return Response{}, fmt.Errorf("wire: Recv with no pending request")
	}
	// Touch the socket — and pay for arming the deadline — only when
	// there are requests to send or the response must still be read.
	if c.bw.Buffered() > 0 || !c.frameBuffered() {
		if err := c.flush(); err != nil {
			return Response{}, err
		}
	}
	payload, err := ReadFrameBuf(c.br, &c.rbuf)
	if err != nil {
		return Response{}, c.poison(err)
	}
	req := c.pending.pop()
	resp, err := ParseResponse(payload, &req)
	c.rbuf.Release() // resp owns its data; a big frame's buffer goes back
	if err != nil {
		return resp, c.poison(err)
	}
	return resp, nil
}

// Do is the synchronous path: Send, Flush and Recv one request. It
// must not be interleaved with outstanding pipelined requests.
func (c *Client) Do(r Request) (Response, error) {
	if c.err != nil {
		return Response{}, c.err
	}
	if c.pending.n != 0 {
		return Response{}, fmt.Errorf("wire: Do with %d pipelined requests outstanding", c.pending.n)
	}
	if err := c.Send(r); err != nil {
		return Response{}, err
	}
	return c.Recv()
}

// CloseWrite flushes and half-closes the connection, telling the
// server no more requests are coming; the server drains what it has
// read and closes. Responses can still be received afterwards.
func (c *Client) CloseWrite() error {
	if err := c.bw.Flush(); err != nil {
		return c.poison(err)
	}
	if tc, ok := c.nc.(*net.TCPConn); ok {
		return tc.CloseWrite()
	}
	return nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.nc.Close() }

// reqRing is the client's FIFO of unanswered requests: a power-of-two
// circular buffer that grows only when full, so a steady pipelining
// window reuses the same storage for the life of the connection.
type reqRing struct {
	buf  []Request
	head int
	n    int
}

// push appends r at the tail.
func (q *reqRing) push(r Request) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

// pop removes and returns the head; the ring must not be empty.
func (q *reqRing) pop() Request {
	r := q.buf[q.head]
	q.buf[q.head] = Request{} // drop a batch's Sub for the collector
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

// grow doubles the ring, unwrapping its contents to the front.
func (q *reqRing) grow() {
	nb := make([]Request, max(16, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = nb, 0
}
