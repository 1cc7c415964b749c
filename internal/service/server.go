package service

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Backend is what the network server needs from the lease service.
// *Service implements it; the chaos campaigns wrap it to record the
// server-boundary history the linearizability checker replays.
type Backend interface {
	Acquire(resource, owner string, opt AcquireOptions) (Lease, error)
	ReleaseFenced(resource string, token, fence uint64) error
	Resume(resource string, token, fence uint64) (Lease, error)
	Drain(grace time.Duration) error
	Close() error
}

// ServerOptions tune the network layer's robustness behavior; the zero
// value reproduces the original permissive server.
type ServerOptions struct {
	// IdleTimeout reaps connections that go quiet between requests —
	// including half-open peers that died mid-frame, which a bare TCP
	// read would wait on forever (0 = never reap).
	IdleTimeout time.Duration
	// MaxWait caps the server-side queued wait of any acquire,
	// regardless of what the client asked for, so an abandoned
	// connection cannot pin its goroutine in the admission queue
	// indefinitely (0 = honor the client's request unbounded).
	MaxWait time.Duration
	// RetryAfter, when positive, is attached to wire-v2 shed-class
	// refusals (queue-full, shed, degraded, draining) as the retry-after
	// hint: the server inserting a delay into the client's retry loop,
	// which is the paper's anti-herd delay one layer up.
	RetryAfter time.Duration
	// FlushDelay, when positive, holds each connection's response socket
	// for up to this long so frames completing close together batch into
	// one write syscall — delay-inserted write coalescing, the paper's
	// throughput-for-p50 trade made explicit (0 = self-clocked
	// coalescing: flush when no other frame on the connection is
	// imminent; a lock-step connection writes through).
	FlushDelay time.Duration
	// Window caps the concurrently-executing pipelined (wire v3)
	// requests per connection; once the window is full the connection's
	// read loop stops pulling frames, pushing backpressure into the TCP
	// window. v1/v2 connections stay strictly one-in-flight regardless
	// (0 = DefaultWindow).
	Window int
}

// DefaultWindow is the per-connection pipelining window when
// ServerOptions.Window is zero.
const DefaultWindow = 32

// Server serves the wire protocol over TCP, one goroutine per
// connection with a strict one-request-in-flight-per-connection
// discipline (the closed-loop clients the load generator models never
// pipeline). Waiting acquires block the connection's request, which is
// exactly the queued-waiter semantics of the in-process API.
type Server struct {
	svc Backend
	opt ServerOptions

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool
	wg       sync.WaitGroup
}

// NewServer wraps a service for network serving with default options.
func NewServer(svc Backend) *Server {
	return NewServerWithOptions(svc, ServerOptions{})
}

// NewServerWithOptions wraps a service for network serving.
func NewServerWithOptions(svc Backend, opt ServerOptions) *Server {
	return &Server{svc: svc, opt: opt, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close or Drain; it returns nil
// after a clean shutdown and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.closed || s.draining
			s.mu.Unlock()
			if stopping {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Drain is the graceful half of shutdown: stop accepting, then drain
// the backend (flush queued waiters typed ErrDraining, grace-wait the
// live leases, revoke stragglers). Existing connections stay up —
// connected clients receive the typed CodeDraining verdict with a
// retry-after hint on their next acquire and can still release or
// resume — until the caller finishes with Close.
func (s *Server) Drain(grace time.Duration) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	return s.svc.Drain(grace)
}

// Close stops accepting, closes every live connection, and waits for
// the connection goroutines to drain — no goroutine leaks even
// mid-request (in-flight waiting acquires are flushed by svc.Close if
// the caller closes the service too; a bare server Close unblocks reads
// by closing the sockets).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
		if s.draining {
			err = nil // the drain already closed the listener
		}
	}
	s.wg.Wait()
	return err
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	s.wg.Done()
}

// serveConn is the per-connection request loop. A malformed frame is
// answered with a typed CodeBadFrame error and the connection is closed
// — a misbehaving client cannot wedge the read loop. With IdleTimeout
// set, a peer that goes quiet (or half-open) between requests is reaped
// by the read deadline instead of pinning the goroutine forever.
//
// v1/v2 frames dispatch serially in-line, preserving the strict
// one-in-flight discipline those clients rely on. The first v3 acquire
// lazily starts the connection's pipeline: a fixed pool of `window`
// workers fed by a window-deep channel, so at most `window` requests
// execute concurrently and at most another window sit decoded awaiting
// a worker; past that the read loop blocks (TCP backpressure) rather
// than growing an unbounded queue. The buffer keeps the read loop
// decoding while workers run instead of stalling on a synchronous
// goroutine hand-off per frame. Responses leave through the shared
// flushWriter in completion order; request IDs let the client reorder.
//
// Responses the read loop produces itself are batched while it still
// holds a whole undecoded frame, and handed to the flushWriter in one
// piece before it would block on the socket (or on a full window): the
// read loop never stops decoding to write a frame it can send along
// with the next one.
func (s *Server) serveConn(conn net.Conn) {
	dec := NewDecoder()
	// 32 KiB: coalesced peers deliver multi-frame batches (up to the
	// 8 KiB flush threshold plus whatever lands while a read is parked),
	// and the reader should swallow a batch in one syscall.
	br := bufio.NewReaderSize(conn, 32<<10)
	fw := newFlushWriter(conn, s.opt.FlushDelay)
	// producing counts the goroutines with a response still to hand to
	// fw — a worker per decoded acquire, plus the read loop while its
	// batch is non-empty — and inputBuffered says the read loop holds
	// another whole request. Either makes a response from someone other
	// than the writer imminent, which is when a zero-delay leader waits
	// for it (see flushWriter). A lock-step connection has neither, so
	// it writes through.
	var producing atomic.Int64
	var inputBuffered atomic.Bool
	fw.imminent = func() bool { return producing.Load() > 1 || inputBuffered.Load() }
	var batch []byte // the read loop's responses not yet handed to fw
	flushBatch := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := fw.WriteFrame(batch)
		batch = batch[:0]
		producing.Add(-1)
		return err
	}
	var pl *connPipeline
	defer func() {
		if pl != nil {
			pl.stop()
		}
		fw.Close()
		s.dropConn(conn)
	}()
	for {
		if s.opt.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opt.IdleTimeout))
		}
		req, err := dec.ReadRequest(br)
		if err != nil {
			var werr *WireError
			if errors.As(err, &werr) {
				// Malformed frames are version-ambiguous; answer in v1,
				// which every client decodes.
				resp := Response{Op: OpError, Code: CodeBadFrame, Msg: werr.Msg}
				if out, eerr := AppendResponse(batch, resp); eerr == nil {
					batch = out
				}
			}
			flushBatch()
			return // EOF, closed socket, idle deadline, or malformed frame
		}
		if req.Version == WireVersion3 && req.Op == OpAcquire {
			// Acquires can park in an admission queue, so they run on the
			// window's worker pool. Everything else (release, resume, ping)
			// only ever takes a shard lock briefly — dispatching those
			// inline on the read loop skips a goroutine hand-off per op,
			// which at pipelined rates is a top-line scheduler cost on few
			// cores. Responses interleave by ID, so ordering is free.
			if pl == nil {
				pl = s.startPipeline(conn, fw, &producing)
			}
			producing.Add(1)
			select {
			case pl.reqs <- req:
			default:
				// The window is full: answer what is batched before
				// blocking on it.
				if flushBatch() != nil {
					return
				}
				pl.reqs <- req
			}
		} else {
			resp := s.dispatch(req)
			resp.ID = req.ID
			if len(batch) == 0 {
				producing.Add(1)
			}
			out, err := AppendResponse(batch, resp)
			if err != nil {
				return
			}
			batch = out
		}
		more := wholeFrameBuffered(br)
		inputBuffered.Store(more)
		if !more && flushBatch() != nil {
			return
		}
	}
}

// wholeFrameBuffered reports whether br holds a complete frame, so
// decoding it will not block on the socket.
func wholeFrameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < wireHeaderLen {
		return false
	}
	hdr, _ := br.Peek(wireHeaderLen)
	return br.Buffered() >= wireHeaderLen+int(binary.BigEndian.Uint16(hdr[2:]))
}

// connPipeline is one connection's v3 worker pool.
type connPipeline struct {
	reqs chan Request
	wg   sync.WaitGroup
}

// startPipeline spins up the connection's pipelined dispatch workers.
// Each worker owns its encode scratch; resource-level parallelism comes
// from the service's shards, so workers for different resources really
// do proceed concurrently while workers queued on one hot resource wait
// in its shard's admission queue like any other waiter.
func (s *Server) startPipeline(conn net.Conn, fw *flushWriter, producing *atomic.Int64) *connPipeline {
	window := s.opt.Window
	if window <= 0 {
		window = DefaultWindow
	}
	pl := &connPipeline{reqs: make(chan Request, window)}
	pl.wg.Add(window)
	for i := 0; i < window; i++ {
		go func() {
			defer pl.wg.Done()
			var scratch []byte
			failed := false
			for req := range pl.reqs {
				if failed {
					producing.Add(-1)
					continue // drain so the read loop never blocks without receivers
				}
				resp := s.dispatch(req)
				resp.ID = req.ID
				out, err := AppendResponse(scratch[:0], resp)
				if err == nil {
					scratch = out
					err = fw.WriteFrame(out)
				}
				producing.Add(-1)
				if err != nil {
					failed = true
					conn.Close()
				}
			}
		}()
	}
	return pl
}

// stop ends intake and waits for in-flight dispatches to finish.
func (pl *connPipeline) stop() {
	close(pl.reqs)
	pl.wg.Wait()
}

// errResp builds the typed error response for v, attaching the
// retry-after hint to v2 shed-class refusals.
func (s *Server) errResp(v uint8, err error) Response {
	resp := Response{Version: v, Op: OpError, Code: errorCode(err), Msg: err.Error()}
	if v >= WireVersion2 && s.opt.RetryAfter > 0 && shedClass(resp.Code) {
		resp.RetryAfter = s.opt.RetryAfter
	}
	return resp
}

// dispatch executes one request against the service, answering in the
// version the request arrived in.
func (s *Server) dispatch(req Request) Response {
	v := req.Version
	switch req.Op {
	case OpAcquire:
		opt := AcquireOptions{TTL: req.TTL, Wait: req.Wait, MaxWait: req.MaxWait}
		if s.opt.MaxWait > 0 && (opt.MaxWait <= 0 || opt.MaxWait > s.opt.MaxWait) {
			opt.MaxWait = s.opt.MaxWait
		}
		if req.Deadline > 0 {
			// Deadline propagation: clamp the queued wait to the client's
			// remaining budget so a caller that has already given up
			// cannot hold a queue slot (or this goroutine) past it.
			remaining := time.Until(time.Unix(0, req.Deadline))
			if remaining <= 0 {
				return s.errResp(v, ErrWaitTimeout)
			}
			if opt.Wait && (opt.MaxWait <= 0 || opt.MaxWait > remaining) {
				opt.MaxWait = remaining
			}
		}
		lease, err := s.svc.Acquire(req.Resource, req.Owner, opt)
		if err != nil {
			return s.errResp(v, err)
		}
		resp := Response{Version: v, Op: OpGranted, Token: lease.Token, Deadline: lease.Deadline.UnixNano()}
		if v >= WireVersion2 {
			resp.Fence = lease.Fence
		}
		return resp
	case OpRelease:
		if err := s.svc.ReleaseFenced(req.Resource, req.Token, req.Fence); err != nil {
			return s.errResp(v, err)
		}
		return Response{Version: v, Op: OpOK}
	case OpResume:
		lease, err := s.svc.Resume(req.Resource, req.Token, req.Fence)
		if err != nil {
			return s.errResp(v, err)
		}
		resp := Response{Version: v, Op: OpGranted, Token: lease.Token, Deadline: lease.Deadline.UnixNano(), Fence: lease.Fence}
		return resp
	case OpPing:
		return Response{Version: v, Op: OpOK}
	}
	return Response{Version: v, Op: OpError, Code: CodeBadFrame, Msg: "unknown op"}
}
