package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"iqolb/internal/service"
	"iqolb/locks"
)

// shape is one serving workload's load: how many connections, how many
// workers share each (pipelined) connection, and what they lock.
type shape struct {
	conns          int
	window         int // client pipeline window per connection
	workersPerConn int
	resources      int     // 0: every worker has a private resource
	rate           float64 // > 0: open loop at this many leases/s
}

func (s shape) workers() int { return s.conns * s.workersPerConn }

// serverConfig is lockserve's default configuration: write-through
// responses, window 32, hand-off grants, 8 mcs-guarded shards.
func serverConfig() (service.Config, service.ServerOptions, error) {
	kind, err := locks.ParseKind("mcs")
	if err != nil {
		return service.Config{}, service.ServerOptions{}, err
	}
	return service.Config{
			Shards:          8,
			Lock:            kind,
			Policy:          service.PolicyHandoff,
			QueueDepth:      64,
			DefaultTTL:      5 * time.Second,
			MaxTTL:          60 * time.Second,
			StarvationBound: 10 * time.Second,
		}, service.ServerOptions{
			IdleTimeout: 2 * time.Minute,
			RetryAfter:  2 * time.Millisecond,
			Window:      service.DefaultWindow,
		}, nil
}

const opTimeout = 30 * time.Second

var acquireOpts = service.AcquireOptions{Wait: true, MaxWait: opTimeout}

// guardedBackend checks mutual exclusion where a lease is really held:
// from the core's grant until the server hands the holder's release to
// the core. Each resource has a holder slot; a grant while the slot is
// taken is a breach, and only the holder's own release clears it.
type guardedBackend struct {
	service.Backend
	holders  map[string]*atomic.Uint64 // filled before serving, read-only after
	breaches atomic.Int64
}

func newGuardedBackend(b service.Backend, resources []string) *guardedBackend {
	g := &guardedBackend{Backend: b, holders: make(map[string]*atomic.Uint64, len(resources))}
	for _, r := range resources {
		g.holders[r] = new(atomic.Uint64)
	}
	return g
}

func (g *guardedBackend) Acquire(resource, owner string, opt service.AcquireOptions) (service.Lease, error) {
	l, err := g.Backend.Acquire(resource, owner, opt)
	if err == nil {
		// Tokens are never 0, so a held slot is never 0.
		if h := g.holders[resource]; h == nil || l.Token == 0 || !h.CompareAndSwap(0, l.Token) {
			g.breaches.Add(1)
		}
	}
	return l, err
}

func (g *guardedBackend) ReleaseFenced(resource string, token, fence uint64) error {
	if h := g.holders[resource]; h != nil {
		h.CompareAndSwap(token, 0)
	}
	return g.Backend.ReleaseFenced(resource, token, fence)
}

// rig is one booted server with its dialled clients, all in this
// process over loopback.
type rig struct {
	svc     *service.Service
	srv     *service.Server
	guard   *guardedBackend
	clients []*service.Client
	served  chan error
	tr      *tracer // nil when untraced
}

// boot starts a server and dials its clients; tr wraps the listener,
// the Backend and the client connections when non-nil. The exclusion
// guard wraps the Backend in every run.
func boot(sh shape, tr *tracer) (*rig, error) {
	cfg, opts, err := serverConfig()
	if err != nil {
		return nil, err
	}
	svc, err := service.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("service.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	var backend service.Backend = svc
	var l net.Listener = ln
	if tr != nil {
		backend = tracedBackend{Service: svc, t: tr}
		l = tracedListener{Listener: ln, t: tr}
	}
	guard := newGuardedBackend(backend, resourceNames(sh))
	r := &rig{svc: svc, srv: service.NewServerWithOptions(guard, opts), guard: guard, served: make(chan error, 1), tr: tr}
	go func() { r.served <- r.srv.Serve(l) }()
	for i := 0; i < sh.conns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			r.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		if tr != nil {
			c = tr.clientConn(c)
		}
		cl := service.NewClient(c)
		cl.SetOpTimeout(opTimeout)
		r.clients = append(r.clients, cl)
		if err := cl.Pipeline(sh.window, 0); err != nil {
			r.close()
			return nil, fmt.Errorf("pipeline: %w", err)
		}
	}
	return r, nil
}

// close shuts the clients, the server and the service, and waits for
// the accept loop to return.
func (r *rig) close() error {
	for _, c := range r.clients {
		c.Close()
	}
	err := r.srv.Close()
	r.svc.Close()
	if serr := <-r.served; err == nil {
		err = serr
	}
	return err
}

// numSlices splits a measured interval into equal slices. The
// end-to-end figures are medians over the slices, so a hiccup of the
// host moves one slice rather than the result.
const numSlices = 10

// slice is what completed within one slice of an interval (in the open
// loop: what was due within it).
type slice struct {
	lat    *hist // client-observed acquire latency; failures sort last
	lag    *hist // open loop only: send time minus due time
	leases int64 // acquire+release pairs completed
}

// phase is what one measured or warm-up interval produced.
type phase struct {
	slices    []slice
	sliceLen  time.Duration
	lat, lag  *hist // the whole interval
	leases    int64
	attempted int64 // acquires attempted
	failedAcq int64
	failedRel int64
	elapsed   time.Duration
}

// sliceMedian is the median over the slices of f.
func (p phase) sliceMedian(f func(slice) float64) float64 {
	xs := make([]float64, len(p.slices))
	for i, s := range p.slices {
		xs[i] = f(s)
	}
	return median(xs)
}

func (p phase) leasesPerS() float64 {
	return p.sliceMedian(func(s slice) float64 { return float64(s.leases) / p.sliceLen.Seconds() })
}

func (p phase) latPct(q float64) float64 {
	return p.sliceMedian(func(s slice) float64 { return s.lat.pct(q) })
}

// minSliceCount is the fewest samples any slice holds.
func (p phase) minSliceCount() int {
	n := -1
	for _, s := range p.slices {
		if c := s.lat.count(); n < 0 || c < n {
			n = c
		}
	}
	return n
}

// workerOut is one worker goroutine's record, merged after the phase.
type workerOut struct {
	slices                          []slice
	sliceLen                        time.Duration
	attempted, failedAcq, failedRel int64
}

func newWorkerOut(n int, sliceLen time.Duration, lag bool) workerOut {
	o := workerOut{slices: make([]slice, n), sliceLen: sliceLen}
	for i := range o.slices {
		o.slices[i].lat = newHist()
		if lag {
			o.slices[i].lag = newHist()
		}
	}
	return o
}

// at returns the slice holding offset off from the interval's start.
func (o *workerOut) at(off time.Duration) *slice {
	i := int(off / o.sliceLen)
	if i < 0 {
		i = 0
	}
	if i >= len(o.slices) {
		i = len(o.slices) - 1
	}
	return &o.slices[i]
}

// lease performs one acquire+release pair and records it. dueNS, when
// not negative, is the open-loop due time the latency is counted from.
func (r *rig) lease(w int, cl *service.Client, res string, start time.Time, dueNS int64, out *workerOut, ownerStr string) {
	var id uint32
	if r.tr != nil {
		id = r.tr.leaseID()
		ownerStr = owner(w, id)
	}
	out.attempted++
	t0 := time.Now()
	var tr0 int64
	if r.tr != nil {
		tr0 = r.tr.now()
	}
	l, err := cl.Acquire(res, ownerStr, acquireOpts)
	t1 := time.Now()
	if r.tr != nil {
		r.tr.record(spClientAcquire, id, tr0, r.tr.now())
	}
	sl := out.at(t1.Sub(start))
	if dueNS >= 0 {
		sl = out.at(time.Duration(dueNS))
	}
	if err != nil {
		out.failedAcq++
		sl.lat.fail()
		return
	}
	if dueNS >= 0 {
		sl.lat.add(int64(t1.Sub(start)) - dueNS)
	} else {
		sl.lat.add(int64(t1.Sub(t0)))
	}
	if r.tr != nil {
		tr0 = r.tr.now()
	}
	err = cl.ReleaseFenced(res, l.Token, l.Fence)
	if r.tr != nil {
		r.tr.record(spClientRelease, id, tr0, r.tr.now())
	}
	if err != nil {
		out.failedRel++
		return
	}
	sl.leases++
}

// resourceNames returns the resources the workers lock: worker w's own
// at index w when they are private.
func resourceNames(sh shape) []string {
	if sh.resources > 0 {
		names := make([]string, sh.resources)
		for i := range names {
			names[i] = fmt.Sprintf("hot-%d", i)
		}
		return names
	}
	names := make([]string, sh.workers())
	for i := range names {
		names[i] = fmt.Sprintf("private-%03d", i)
	}
	return names
}

// closedLoop runs every worker back to back for d, or for perWorker
// leases each when perWorker > 0 (the warm-up).
func (r *rig) closedLoop(sh shape, seed uint64, d time.Duration, perWorker int) phase {
	names := resourceNames(sh)
	n, sliceLen := numSlices, d/numSlices
	if perWorker > 0 {
		n, sliceLen = 1, time.Duration(math.MaxInt64)
	}
	outs := make([]workerOut, sh.workers())
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := range outs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &outs[w]
			*out = newWorkerOut(n, sliceLen, false)
			cl := r.clients[w/sh.workersPerConn]
			draw := newRNG(seed, uint64(w))
			o := owner(w, 0)
			for i := 0; perWorker == 0 || i < perWorker; i++ {
				if perWorker == 0 && stop.Load() {
					return
				}
				k := w
				if sh.resources > 0 {
					k = draw.intn(sh.resources)
				}
				r.lease(w, cl, names[k], start, -1, out, o)
			}
		}(w)
	}
	if perWorker == 0 {
		time.Sleep(d)
		stop.Store(true)
	}
	wg.Wait()
	return collect(outs, sliceLen, time.Since(start))
}

// openLoop sends seeded Poisson arrivals at sh.rate for d. Each worker
// owns every workersPerConn-th arrival of its connection's schedule and
// sends it when it falls due, so the goroutine a timer wakes is the one
// that sends, with no hand-off between. Latency counts from the due
// time, so a stalled generator or a busy worker shows up in the result.
// Timers sleep at least a millisecond on an idle Go runtime, so each
// worker waits on its own timerfd instead.
func (r *rig) openLoop(sh shape, seed uint64, d time.Duration) (phase, error) {
	names := resourceNames(sh)
	due := make([][]int64, sh.conns)
	for c := range due {
		due[c] = arrivals(seed, uint64(c), sh.rate/float64(sh.conns), d.Seconds())
	}
	outs := make([]workerOut, sh.workers())
	errs := make([]error, sh.workers())
	var wg sync.WaitGroup
	start := time.Now()
	for w := range outs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &outs[w]
			*out = newWorkerOut(numSlices, d/numSlices, true)
			pc, err := newPacer()
			if err != nil {
				errs[w] = err
				return
			}
			defer pc.close()
			c := w / sh.workersPerConn
			o := owner(w, 0)
			for i := w % sh.workersPerConn; i < len(due[c]); i += sh.workersPerConn {
				dueNS := due[c][i]
				if err := pc.sleep(time.Duration(dueNS) - time.Since(start)); err != nil {
					errs[w] = err
					return
				}
				out.at(time.Duration(dueNS)).lag.add(int64(time.Since(start)) - dueNS)
				r.lease(w, r.clients[c], names[w], start, dueNS, out, o)
			}
		}(w)
	}
	wg.Wait()
	return collect(outs, d/numSlices, time.Since(start)), errors.Join(errs...)
}

func collect(outs []workerOut, sliceLen time.Duration, elapsed time.Duration) phase {
	p := phase{sliceLen: sliceLen, elapsed: elapsed, lat: newHist(), lag: newHist()}
	for _, o := range outs {
		for i, s := range o.slices {
			if i == len(p.slices) {
				p.slices = append(p.slices, slice{lat: newHist(), lag: newHist()})
			}
			ps := &p.slices[i]
			ps.lat.merge(s.lat)
			p.lat.merge(s.lat)
			if s.lag != nil {
				ps.lag.merge(s.lag)
				p.lag.merge(s.lag)
			}
			ps.leases += s.leases
			p.leases += s.leases
		}
		p.attempted += o.attempted
		p.failedAcq += o.failedAcq
		p.failedRel += o.failedRel
	}
	return p
}

// run drives the workload's measured interval.
func (r *rig) run(sh shape, seed uint64, d time.Duration) (phase, error) {
	if sh.rate > 0 {
		return r.openLoop(sh, seed, d)
	}
	return r.closedLoop(sh, seed, d, 0), nil
}

// warmOps is each worker's warm-up lease count, run closed loop after
// every boot so pools, buffers and TCP windows are grown before timing.
const warmOps = 200

// setUp boots a rig and warms it; it returns the rig and the time to
// the first timed op.
func setUp(sh shape, seed uint64, tr *tracer) (*rig, time.Duration, error) {
	t0 := time.Now()
	r, err := boot(sh, tr)
	if err != nil {
		return nil, 0, err
	}
	w := r.closedLoop(sh, seed^0x5eed, 0, warmOps)
	if b := r.guard.breaches.Load(); w.failedAcq+w.failedRel+b > 0 {
		r.close()
		return nil, 0, fmt.Errorf("warm-up: %d failed acquires, %d failed releases, %d exclusion breaches",
			w.failedAcq, w.failedRel, b)
	}
	return r, time.Since(t0), nil
}

// conservation checks lease conservation on the service's counters:
// every grant ended in a release, expiry or revocation, or is live, and
// none is live once the workers are done.
func conservation(svc *service.Service) (string, bool) {
	s := svc.Snapshot()
	t := s.Totals
	ok := t.Grants == t.Releases+t.Expiries+t.Revocations+uint64(s.LiveLeases) && s.LiveLeases == 0
	return fmt.Sprintf("grants %d = releases %d + expiries %d + revocations %d + live %d",
		t.Grants, t.Releases, t.Expiries, t.Revocations, s.LiveLeases), ok
}
