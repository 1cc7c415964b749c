package engine

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFIFOWithinSameCycle(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Time) { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events fired out of order: %v", order)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %d, want 5", e.Now())
	}
}

func TestTimeOrdering(t *testing.T) {
	e := New()
	times := []Time{9, 3, 7, 1, 8, 2, 0, 6, 5, 4}
	var fired []Time
	for _, at := range times {
		e.At(at, func(now Time) { fired = append(fired, now) })
	}
	e.Run(0)
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("events fired out of time order: %v", fired)
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := New()
	var secondAt Time
	e.At(10, func(Time) {
		e.After(5, func(now Time) { secondAt = now })
	})
	e.Run(0)
	if secondAt != 15 {
		t.Fatalf("After(5) from cycle 10 fired at %d, want 15", secondAt)
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	e := New()
	e.At(10, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.At(3, func(Time) {})
	})
	e.Run(0)
}

func TestHaltStopsRun(t *testing.T) {
	e := New()
	count := 0
	for i := Time(0); i < 100; i++ {
		e.At(i, func(now Time) {
			count++
			if now == 10 {
				e.Halt()
			}
		})
	}
	e.Run(0)
	if count != 11 {
		t.Fatalf("fired %d events before halt, want 11", count)
	}
	if e.Pending() != 89 {
		t.Fatalf("pending = %d, want 89", e.Pending())
	}
}

func TestRunLimit(t *testing.T) {
	e := New()
	fired := 0
	e.At(5, func(Time) { fired++ })
	e.At(500, func(Time) { fired++ })
	end, hit := e.Run(100)
	if !hit {
		t.Fatal("limit not reported as hit")
	}
	if end != 100 {
		t.Fatalf("end = %d, want 100", end)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (event beyond limit must not fire)", fired)
	}
}

func TestStepEmptyQueue(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestCascadedScheduling(t *testing.T) {
	e := New()
	depth := 0
	var recur func(Time)
	recur = func(Time) {
		depth++
		if depth < 1000 {
			e.After(1, recur)
		}
	}
	e.At(0, recur)
	end, _ := e.Run(0)
	if depth != 1000 {
		t.Fatalf("depth = %d, want 1000", depth)
	}
	if end != 999 {
		t.Fatalf("end = %d, want 999", end)
	}
}

// Property: for any set of (time, id) pairs, the engine dispatches them
// sorted by time with ties broken by insertion order.
func TestPropertyDispatchOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		type rec struct {
			at  Time
			idx int
		}
		e := New()
		var want, got []rec
		for i, r := range raw {
			at := Time(r % 64) // force plenty of ties
			want = append(want, rec{at, i})
			idx := i
			e.At(at, func(now Time) { got = append(got, rec{now, idx}) })
		}
		e.Run(0)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(raw) {
			return false
		}
		for i := range got {
			if got[i].at != want[i].at || got[i].idx != want[i].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var out []Time
		for i := 0; i < 500; i++ {
			e.At(Time(rng.Intn(100)), func(now Time) { out = append(out, now) })
		}
		e.Run(0)
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("nondeterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestPropertyDispatchOrderWithCascades: seeded random schedules with
// many same-cycle ties, where firing events schedule further events
// (some at the current cycle), dispatch in exactly the order of a stable
// sort of everything scheduled by (time, scheduling order). Scheduling
// into the past from inside an event still panics.
func TestPropertyDispatchOrderWithCascades(t *testing.T) {
	type rec struct {
		at Time
		id int
	}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var scheduled []rec
		var fired []int
		var schedule func(at Time)
		schedule = func(at Time) {
			id := len(scheduled)
			scheduled = append(scheduled, rec{at, id})
			e.At(at, func(now Time) {
				if now != at {
					t.Fatalf("seed %d: event %d for cycle %d fired at %d", seed, id, at, now)
				}
				fired = append(fired, id)
				for k := rng.Intn(4); k > 0 && len(scheduled) < 3000; k-- {
					schedule(now + Time(rng.Intn(3)))
				}
				if now > 0 && rng.Intn(50) == 0 {
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("seed %d: scheduling at %d from cycle %d did not panic", seed, now-1, now)
							}
						}()
						e.At(now-1, func(Time) {})
					}()
				}
			})
		}
		for i := 0; i < 200; i++ {
			schedule(Time(rng.Intn(16)))
		}
		e.Run(0)
		want := append([]rec(nil), scheduled...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %d events, scheduled %d", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i].id {
				t.Fatalf("seed %d: dispatch %d is event %d, want %d", seed, i, fired[i], want[i].id)
			}
		}
	}
}

type ticker struct {
	e  *Engine
	ev Event
}

func (tk *ticker) tick(Time) { tk.e.After(1, tk.ev) }

// TestEngineStepAllocs: dispatching a pre-bound event that reschedules
// itself allocates nothing.
func TestEngineStepAllocs(t *testing.T) {
	e := New()
	tk := &ticker{e: e}
	tk.ev = tk.tick
	for i := 0; i < 8; i++ {
		e.At(Time(i), tk.ev)
	}
	if n := testing.AllocsPerRun(1000, func() { e.Step() }); n != 0 {
		t.Fatalf("Step allocates %.2f/op, want 0", n)
	}
}

// TestHandlerRecyclesSlots: a Handler delivers each call's own argument
// in (time, scheduling order) with plain events, a call may schedule the
// next one from inside fn, and once warm it allocates nothing.
func TestHandlerRecyclesSlots(t *testing.T) {
	e := New()
	var got []int
	var h *Handler[int]
	h = NewHandler(e, func(v int) {
		got = append(got, v)
		if v < 3 {
			h.After(0, v+1) // reuses the slot this call just freed
		}
	})
	h.At(5, 0)
	e.At(5, func(Time) { got = append(got, -1) })
	h.At(5, 10)
	e.Run(0)
	want := []int{0, -1, 10, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("calls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("calls = %v, want %v", got, want)
		}
	}
	if len(h.free) != 2 {
		t.Fatalf("%d free slots after draining, want 2 (the peak in flight)", len(h.free))
	}

	var sink int
	tick := NewHandler(e, func(v int) { sink += v })
	tick.After(1, 1)
	e.Step()
	if n := testing.AllocsPerRun(1000, func() {
		tick.After(1, 1)
		e.Step()
	}); n != 0 {
		t.Fatalf("Handler.After+Step allocates %.2f/op, want 0", n)
	}
}
