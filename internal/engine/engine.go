// Package engine provides the deterministic discrete-event core that drives
// the multiprocessor simulation.
//
// All simulator components (processors, caches, buses, memory controllers)
// schedule work as events on a single Engine. Events fire in nondecreasing
// time order; events scheduled for the same cycle fire in the order they
// were scheduled (FIFO by a monotonically increasing sequence number), which
// makes every simulation bit-for-bit reproducible.
package engine

import "fmt"

// Time is the simulated clock, measured in processor cycles.
type Time uint64

// Event is a callback scheduled to run at a particular simulated time.
type Event func(now Time)

type item struct {
	at   Time
	seq  uint64
	call Event
}

// before orders items by (at, seq). seq is unique, so the order is total
// and the dispatch order does not depend on the heap's internal layout.
func (a item) before(b item) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a deterministic discrete-event scheduler.
//
// The zero value is not ready to use; call New.
type Engine struct {
	now       Time
	seq       uint64
	queue     []item // binary min-heap by (at, seq)
	fired     uint64
	halted    bool
	afterStep []func(Time)
}

// New returns an empty engine with the clock at cycle zero.
func New() *Engine {
	return &Engine{queue: make([]item, 0, 1024)}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules ev to fire at absolute time at. Scheduling into the past
// panics: it would silently corrupt causality and always indicates a bug in
// a component's latency arithmetic.
func (e *Engine) At(at Time, ev Event) {
	if at < e.now {
		panic(fmt.Sprintf("engine: event scheduled at %d, before now %d", at, e.now))
	}
	e.seq++
	e.push(item{at: at, seq: e.seq, call: ev})
}

// push sifts it up from the end of the heap, moving each parent down one
// level instead of swapping.
func (e *Engine) push(it item) {
	e.queue = append(e.queue, it)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = it
}

// pop removes and returns the earliest item. The last item fills the
// root's hole and sifts down, each smaller child moving up one level.
func (e *Engine) pop() item {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = item{} // drop the callback so the collector can free it
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// After schedules ev to fire delay cycles from now.
func (e *Engine) After(delay Time, ev Event) {
	e.At(e.now+delay, ev)
}

// Halt stops Run before the next event is dispatched. It is safe to call
// from inside an event.
func (e *Engine) Halt() { e.halted = true }

// SetAfterStep installs a callback invoked after every dispatched event,
// with the clock at that event's time. Observers (invariant monitors) use
// it for periodic scans; the callback must not schedule events or otherwise
// perturb the simulation. nil removes every installed callback.
func (e *Engine) SetAfterStep(fn func(Time)) {
	if fn == nil {
		e.afterStep = nil
		return
	}
	e.afterStep = []func(Time){fn}
}

// AddAfterStep appends an after-step callback without displacing those
// already installed, so independent observers (an invariant monitor and an
// observability collector, say) can coexist on one engine. Callbacks fire
// in attachment order.
func (e *Engine) AddAfterStep(fn func(Time)) {
	if fn == nil {
		return
	}
	e.afterStep = append(e.afterStep, fn)
}

// Step dispatches the single earliest pending event, advancing the clock to
// its timestamp. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	it := e.pop()
	e.now = it.at
	e.fired++
	it.call(e.now)
	for _, fn := range e.afterStep {
		fn(e.now)
	}
	return true
}

// Run dispatches events until the queue drains, Halt is called, or the
// clock passes limit (a safety net against livelock in misbehaving
// protocols; limit==0 means no limit). It returns the final time and
// whether the run ended because the limit was hit.
func (e *Engine) Run(limit Time) (end Time, hitLimit bool) {
	e.halted = false
	for len(e.queue) > 0 && !e.halted {
		if limit != 0 && e.queue[0].at > limit {
			e.now = limit
			return e.now, true
		}
		e.Step()
	}
	return e.now, false
}

// Handler schedules calls of one function, each with its own argument,
// without allocating per call once warm: every pending call rides in a
// slot from the handler's free list, and each slot's fire method is bound
// once. A Handler belongs to one engine.
type Handler[T any] struct {
	eng  *Engine
	fn   func(T)
	free []*slot[T]
}

type slot[T any] struct {
	h    *Handler[T]
	arg  T
	fire Event
}

// NewHandler returns a handler that runs fn on eng.
func NewHandler[T any](eng *Engine, fn func(T)) *Handler[T] {
	return &Handler[T]{eng: eng, fn: fn}
}

// At schedules fn(arg) at absolute time at, with At's ordering rules.
func (h *Handler[T]) At(at Time, arg T) {
	var s *slot[T]
	if n := len(h.free); n > 0 {
		s = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		s = &slot[T]{h: h}
		s.fire = s.run
	}
	s.arg = arg
	h.eng.At(at, s.fire)
}

// After schedules fn(arg) delay cycles from now.
func (h *Handler[T]) After(delay Time, arg T) {
	h.At(h.eng.now+delay, arg)
}

// run frees the slot before calling fn, which may schedule again at once.
func (s *slot[T]) run(Time) {
	arg := s.arg
	var zero T
	s.arg = zero
	s.h.free = append(s.h.free, s)
	s.h.fn(arg)
}
