package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iqolb/internal/service"
)

// spanName identifies a boundary the benchmark can reach from outside
// the program: the client call, the Backend call it causes on the
// server, and the socket reads and writes on either end.
type spanName uint8

const (
	spClientAcquire spanName = iota
	spClientRelease
	spCoreAcquire
	spCoreRelease
	spClientWrite
	spClientRead
	spServerRead
	spServerWrite
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.acquire", "client.release", "core.acquire", "core.release",
	"client.conn.write", "client.conn.read", "server.conn.read", "server.conn.write",
}

// spanParents names each span's parent. A core span's parent is the
// client span of the same lease ID. Socket spans carry lease ID 0: a
// pipelined connection's reads and writes serve many leases at once.
var spanParents = [numSpanNames]string{
	"", "", "client.acquire", "client.release",
	"client.call", "client.call", "server.conn", "server.conn",
}

// ioSampleEvery keeps one socket span in this many in the span store;
// the socket counters see every call.
const ioSampleEvery = 16

// span is one recorded interval; tag packs the lease ID (upper 28 bits)
// and the span name (lower 4).
type span struct {
	start int64 // ns since the tracer's epoch
	dur   uint32
	tag   uint32
}

// ioCounters count one side's socket calls.
type ioCounters struct {
	reads, writes, readBytes, writeBytes, readNS, writeNS atomic.Int64
}

type ioSnapshot struct {
	reads, writes, readBytes, writeBytes, readNS, writeNS int64
}

func (c *ioCounters) snapshot() ioSnapshot {
	return ioSnapshot{c.reads.Load(), c.writes.Load(), c.readBytes.Load(),
		c.writeBytes.Load(), c.readNS.Load(), c.writeNS.Load()}
}

func (a ioSnapshot) sub(b ioSnapshot) ioSnapshot {
	return ioSnapshot{a.reads - b.reads, a.writes - b.writes, a.readBytes - b.readBytes,
		a.writeBytes - b.writeBytes, a.readNS - b.readNS, a.writeNS - b.writeNS}
}

// tracer keeps spans in a fixed in-memory store (no allocation while
// recording) and writes them out once the run ends.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	ioSeq   atomic.Uint64
	nextID  atomic.Uint32
	client  ioCounters
	server  ioCounters
	tokenMu sync.Mutex
	tokenID map[uint64]uint32
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity), tokenID: make(map[uint64]uint32)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(name spanName, id uint32, start, end int64) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return
	}
	d := end - start
	if d > 1<<32-1 {
		d = 1<<32 - 1
	}
	t.spans[i] = span{start: start, dur: uint32(d), tag: id<<4 | uint32(name)}
}

// recorded returns the spans kept and how many were dropped because the
// store was full.
func (t *tracer) recorded() ([]span, int64) {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		return t.spans, n - int64(len(t.spans))
	}
	return t.spans[:n], 0
}

// leaseID allocates the ID that ties one lease's spans together.
func (t *tracer) leaseID() uint32 { return t.nextID.Add(1) & (1<<28 - 1) }

// owner formats the lease owner string. Untraced runs use ID 0, so both
// modes put the same number of bytes on the wire.
func owner(worker int, id uint32) string {
	return fmt.Sprintf("w%03d#%08x", worker, id)
}

// ownerLeaseID recovers the lease ID from an owner string.
func ownerLeaseID(o string) uint32 {
	for i := len(o) - 1; i >= 0; i-- {
		if o[i] == '#' {
			v, err := strconv.ParseUint(o[i+1:], 16, 32)
			if err != nil {
				return 0
			}
			return uint32(v)
		}
	}
	return 0
}

// tracedConn times every Read and Write on one side of a connection.
type tracedConn struct {
	net.Conn
	t            *tracer
	c            *ioCounters
	rSpan, wSpan spanName
}

func (c *tracedConn) Read(p []byte) (int, error) {
	t0 := c.t.now()
	n, err := c.Conn.Read(p)
	t1 := c.t.now()
	c.c.reads.Add(1)
	c.c.readBytes.Add(int64(n))
	c.c.readNS.Add(t1 - t0)
	if c.t.ioSeq.Add(1)%ioSampleEvery == 0 {
		c.t.record(c.rSpan, 0, t0, t1)
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := c.t.now()
	n, err := c.Conn.Write(p)
	t1 := c.t.now()
	c.c.writes.Add(1)
	c.c.writeBytes.Add(int64(n))
	c.c.writeNS.Add(t1 - t0)
	if c.t.ioSeq.Add(1)%ioSampleEvery == 0 {
		c.t.record(c.wSpan, 0, t0, t1)
	}
	return n, err
}

// clientConn wraps the connection handed to service.NewClient.
func (t *tracer) clientConn(c net.Conn) net.Conn {
	return &tracedConn{Conn: c, t: t, c: &t.client, rSpan: spClientRead, wSpan: spClientWrite}
}

// tracedListener wraps every connection the server accepts.
type tracedListener struct {
	net.Listener
	t *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t, c: &l.t.server, rSpan: spServerRead, wSpan: spServerWrite}, nil
}

// tracedBackend times the server's calls into the service core. The
// lease ID arrives in the owner string on acquire and is found again
// from the token on release.
type tracedBackend struct {
	*service.Service
	t *tracer
}

func (b tracedBackend) Acquire(resource, owner string, opt service.AcquireOptions) (service.Lease, error) {
	id := ownerLeaseID(owner)
	t0 := b.t.now()
	l, err := b.Service.Acquire(resource, owner, opt)
	b.t.record(spCoreAcquire, id, t0, b.t.now())
	if err == nil && id != 0 {
		b.t.tokenMu.Lock()
		b.t.tokenID[l.Token] = id
		b.t.tokenMu.Unlock()
	}
	return l, err
}

func (b tracedBackend) ReleaseFenced(resource string, token, fence uint64) error {
	b.t.tokenMu.Lock()
	id := b.t.tokenID[token]
	delete(b.t.tokenID, token)
	b.t.tokenMu.Unlock()
	t0 := b.t.now()
	err := b.Service.ReleaseFenced(resource, token, fence)
	b.t.record(spCoreRelease, id, t0, b.t.now())
	return err
}

// writeSpans writes the kept spans as tab-separated text.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "lease_id\tname\tparent\tstart_ns\tend_ns")
	spans, _ := t.recorded()
	for _, s := range spans {
		name := spanName(s.tag & 0xf)
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\n", s.tag>>4, spanNames[name], spanParents[name], s.start, s.start+int64(s.dur))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
