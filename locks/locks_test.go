// Race-detector stress tests for the native lock library. Run with
// -race: the mutual-exclusion tests increment a plain (unsynchronized)
// counter inside the critical section, so an exclusion bug either loses
// counts or trips the detector; every waiting path is also exercised
// under a GOMAXPROCS matrix including oversubscription (more goroutines
// than processors), which is where lost wake-ups and missing yields
// deadlock.
package locks

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iqolb/internal/stats"
)

// procsMatrix is the GOMAXPROCS axis of the stress tests, clipped to the
// host.
func procsMatrix() []int {
	out := []int{1, 2, 4}
	if n := runtime.NumCPU(); n >= 8 {
		out = append(out, 8)
	}
	return out
}

// withProcs pins GOMAXPROCS for the duration of f. The tests mutate a
// process-wide setting, so none of them may call t.Parallel.
func withProcs(p int, f func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	f()
}

// runWithTimeout fails the test with full stacks if f does not finish in
// d — the no-lost-wakeup watchdog: a lost hand-off parks a waiter
// forever, which shows up here rather than as a suite hang.
func runWithTimeout(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("locked up (lost wake-up?); all stacks:\n%s", buf[:n])
	}
}

func TestRegistry(t *testing.T) {
	for _, k := range Kinds() {
		l, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		if l.Name() != string(k) {
			t.Fatalf("Name() = %q, want %q", l.Name(), k)
		}
		if pk, err := ParseKind(string(k)); err != nil || pk != k {
			t.Fatalf("ParseKind(%q) = %q, %v", k, pk, err)
		}
	}
	var uke *UnknownKindError
	if _, err := New(Kind("bogus")); err == nil {
		t.Fatal("unknown kind accepted")
	} else if !errors.As(err, &uke) {
		t.Fatalf("unknown kind error is %T, want *UnknownKindError", err)
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind accepted an unknown kind")
	}
}

// TestRegisterCustomKind exercises the open half of the registry: a
// registered kind constructs through New, enumerates through Kinds, and
// duplicate registration panics.
func TestRegisterCustomKind(t *testing.T) {
	const kind = Kind("test-custom")
	Register(kind, func(opts ...Option) Lock { return NewTTS(opts...) })
	t.Cleanup(func() { unregister(kind) })
	l, err := New(kind)
	if err != nil {
		t.Fatal(err)
	}
	l.Lock()
	l.Unlock()
	found := false
	for _, k := range Kinds() {
		if k == kind {
			found = true
		}
	}
	if !found {
		t.Fatalf("Kinds() does not list registered kind %q", kind)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(kind, func(opts ...Option) Lock { return NewTTS(opts...) })
}

// unregister removes a kind a test registered, so the registry is the
// same for every run of the suite (-count, -cpu).
func unregister(k Kind) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	delete(registry.fac, k)
	for i, o := range registry.order {
		if o == k {
			registry.order = append(registry.order[:i], registry.order[i+1:]...)
			break
		}
	}
}

// TestTuningOnline verifies that a Tuning store is observed by later
// acquisitions (the values feed the very next backoff construction) and
// that Set clamps controller mistakes to the operating range.
func TestTuningOnline(t *testing.T) {
	tun := NewTuning()
	if got, want := tun.Values(), DefaultTuningValues(); got != want {
		t.Fatalf("fresh tuning = %+v, want defaults %+v", got, want)
	}
	tun.Set(TuningValues{BackoffInitial: 2, BackoffCap: 8, SpinAttempts: 1, TicketUnit: 4})
	if v := tun.Values(); v.BackoffCap != 8 || v.SpinAttempts != 1 {
		t.Fatalf("tuning after Set = %+v", v)
	}
	// Clamps: zero seed, inverted cap, absurd attempts.
	tun.Set(TuningValues{BackoffInitial: 0, BackoffCap: 0, SpinAttempts: 1 << 20, TicketUnit: 1 << 30})
	v := tun.Values()
	if v.BackoffInitial < 1 || v.BackoffCap < v.BackoffInitial || v.SpinAttempts > 64 {
		t.Fatalf("clamp failed: %+v", v)
	}

	// Every primitive built against the shared tuning still excludes
	// correctly while the parameters are retuned mid-run.
	for _, k := range Kinds() {
		l, err := New(k, WithTuning(tun))
		if err != nil {
			t.Fatal(err)
		}
		var counter uint64
		const goroutines, opsPerG = 4, 300
		runWithTimeout(t, 2*time.Minute, func() {
			var wg sync.WaitGroup
			stop := make(chan struct{})
			go func() {
				flip := false
				for {
					select {
					case <-stop:
						return
					default:
					}
					if flip {
						tun.Set(TuningValues{BackoffInitial: 1, BackoffCap: 2, SpinAttempts: 0, TicketUnit: 1})
					} else {
						tun.Set(DefaultTuningValues())
					}
					flip = !flip
					runtime.Gosched()
				}
			}()
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < opsPerG; i++ {
						l.Lock()
						counter++
						l.Unlock()
					}
				}()
			}
			wg.Wait()
			close(stop)
		})
		if want := uint64(goroutines * opsPerG); counter != want {
			t.Fatalf("%s: counter = %d, want %d (mutual exclusion violated under retuning)", k, counter, want)
		}
	}
}

// TestOnAcquiredHook checks the telemetry callback contract: one call
// per acquisition, on the holder, with a zero hand-off only first.
func TestOnAcquiredHook(t *testing.T) {
	var calls, zeroHandoffs int
	l, err := New(KindMCS, WithHooks(&Hooks{OnAcquired: func(waitNS, handoffNS uint64) {
		calls++
		if handoffNS == 0 {
			zeroHandoffs++
		}
	}}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Lock()
		l.Unlock()
	}
	if calls != 10 {
		t.Fatalf("OnAcquired fired %d times, want 10", calls)
	}
	if zeroHandoffs != 1 {
		t.Fatalf("zero hand-off samples = %d, want exactly the first", zeroHandoffs)
	}
}

// TestMutualExclusion hammers one lock from 2×GOMAXPROCS goroutines per
// processor count; the protected counter is a plain uint64, so the race
// detector doubles as the oracle.
func TestMutualExclusion(t *testing.T) {
	const opsPerG = 1500
	for _, k := range Kinds() {
		for _, procs := range procsMatrix() {
			t.Run(fmt.Sprintf("%s/p%d", k, procs), func(t *testing.T) {
				withProcs(procs, func() {
					l, err := New(k)
					if err != nil {
						t.Fatal(err)
					}
					goroutines := 2 * procs
					var counter uint64 // unsynchronized on purpose
					runWithTimeout(t, 2*time.Minute, func() {
						var wg sync.WaitGroup
						for g := 0; g < goroutines; g++ {
							wg.Add(1)
							go func() {
								defer wg.Done()
								for i := 0; i < opsPerG; i++ {
									l.Lock()
									counter++
									l.Unlock()
								}
							}()
						}
						wg.Wait()
					})
					if want := uint64(goroutines * opsPerG); counter != want {
						t.Fatalf("counter = %d, want %d (mutual exclusion violated)", counter, want)
					}
				})
			})
		}
	}
}

// TestNoLostWakeup forces long blocking chains: every goroutine yields
// inside its critical section, so at any moment most of the pack is
// parked in a lock queue and every release must wake its successor.
// GOMAXPROCS=1 is the harshest cell: nothing runs concurrently, so any
// waiting path that spins without yielding starves the holder outright.
func TestNoLostWakeup(t *testing.T) {
	const opsPerG = 300
	for _, k := range Kinds() {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/p%d", k, procs), func(t *testing.T) {
				withProcs(procs, func() {
					l, err := New(k)
					if err != nil {
						t.Fatal(err)
					}
					const goroutines = 12 // heavily oversubscribed
					var counter uint64
					runWithTimeout(t, 2*time.Minute, func() {
						var wg sync.WaitGroup
						for g := 0; g < goroutines; g++ {
							wg.Add(1)
							go func() {
								defer wg.Done()
								for i := 0; i < opsPerG; i++ {
									l.Lock()
									counter++
									runtime.Gosched() // hold across a reschedule
									l.Unlock()
								}
							}()
						}
						wg.Wait()
					})
					if want := uint64(goroutines * opsPerG); counter != want {
						t.Fatalf("counter = %d, want %d", counter, want)
					}
				})
			})
		}
	}
}

// TestTicketOversubscribedNoLivelock is the regression test for the
// ticket lock's single-processor livelock: with GOMAXPROCS=1 a spinner
// whose ticket is far from now-serving must yield, or the holder never
// runs and the whole pack convoys forever. The fix (Ticket.Lock yields
// when the gap is >1 and periodically even when close) is pinned by
// running far more goroutines than processors with no Gosched inside
// the critical section — the lock's own yields are the only way this
// test can finish.
func TestTicketOversubscribedNoLivelock(t *testing.T) {
	withProcs(1, func() {
		l := NewTicket()
		const goroutines, opsPerG = 16, 200
		var counter uint64
		runWithTimeout(t, 2*time.Minute, func() {
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < opsPerG; i++ {
						l.Lock()
						counter++ // no yield here: the waiters' yields must suffice
						l.Unlock()
					}
				}()
			}
			wg.Wait()
		})
		if want := uint64(goroutines * opsPerG); counter != want {
			t.Fatalf("counter = %d, want %d", counter, want)
		}
	})
}

// TestTicketFIFOExact verifies the ticket lock's FIFO order exactly: the
// holder's ticket is the now-serving value, and successive holders must
// observe consecutive values.
func TestTicketFIFOExact(t *testing.T) {
	withProcs(4, func() {
		l := NewTicket()
		const goroutines, opsPerG = 8, 400
		order := make([]uint64, 0, goroutines*opsPerG)
		var wg sync.WaitGroup
		runWithTimeout(t, 2*time.Minute, func() {
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < opsPerG; i++ {
						l.Lock()
						order = append(order, l.serving.Load())
						l.Unlock()
					}
				}()
			}
			wg.Wait()
		})
		if len(order) != goroutines*opsPerG {
			t.Fatalf("recorded %d acquisitions, want %d", len(order), goroutines*opsPerG)
		}
		for i, s := range order {
			if s != uint64(i) {
				t.Fatalf("acquisition %d served ticket %d (FIFO violated)", i, s)
			}
		}
	})
}

// TestFIFOBound checks the queue locks' bounded-overtaking guarantee
// statistically: a marked waiter samples a global acquisition counter
// just before and just after acquiring; under FIFO, at most the
// goroutines already queued (G-1) can pass it. The bound is slack (the
// sample read and the enqueue are not atomic, and the scheduler can park
// the marked goroutine between them), so a small violation fraction is
// tolerated; a non-FIFO lock under this much contention overshoots it by
// orders of magnitude.
func TestFIFOBound(t *testing.T) {
	for _, k := range []Kind{KindTicket, KindMCS, KindCLH} {
		t.Run(string(k), func(t *testing.T) {
			withProcs(4, func() {
				l, err := New(k)
				if err != nil {
					t.Fatal(err)
				}
				const goroutines, samples = 8, 250
				bound := uint64(4*goroutines + 8)
				var seq atomic.Uint64
				var stop atomic.Bool
				var wg sync.WaitGroup
				violations := 0
				runWithTimeout(t, 2*time.Minute, func() {
					for g := 0; g < goroutines-1; g++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for !stop.Load() {
								l.Lock()
								seq.Add(1)
								spinLoop(256)
								l.Unlock()
							}
						}()
					}
					for i := 0; i < samples; i++ {
						before := seq.Load()
						l.Lock()
						overtakes := seq.Load() - before
						seq.Add(1)
						l.Unlock()
						if overtakes > bound {
							violations++
						}
					}
					stop.Store(true)
					wg.Wait()
				})
				if max := samples / 20; violations > max {
					t.Fatalf("%d/%d samples overtaken by more than %d acquisitions (FIFO bound violated)",
						violations, samples, bound)
				}
			})
		})
	}
}

// TestHooksSerialized exercises the instrumentation contract: hooks fire
// on the holder, so plain histograms collect consistent counts even when
// the lock is contended.
func TestHooksSerialized(t *testing.T) {
	for _, k := range Kinds() {
		t.Run(string(k), func(t *testing.T) {
			withProcs(4, func() {
				h := &Hooks{Wait: &stats.Histogram{}, Hold: &stats.Histogram{}, Handoff: &stats.Histogram{}}
				l, err := New(k, WithHooks(h))
				if err != nil {
					t.Fatal(err)
				}
				const goroutines, opsPerG = 6, 200
				runWithTimeout(t, 2*time.Minute, func() {
					var wg sync.WaitGroup
					for g := 0; g < goroutines; g++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for i := 0; i < opsPerG; i++ {
								l.Lock()
								spinLoop(64)
								l.Unlock()
							}
						}()
					}
					wg.Wait()
				})
				ops := uint64(goroutines * opsPerG)
				if h.Wait.Count != ops {
					t.Fatalf("wait samples = %d, want %d", h.Wait.Count, ops)
				}
				if h.Hold.Count != ops {
					t.Fatalf("hold samples = %d, want %d", h.Hold.Count, ops)
				}
				// Every acquisition after the first release records a
				// hand-off.
				if h.Handoff.Count != ops-1 {
					t.Fatalf("handoff samples = %d, want %d", h.Handoff.Count, ops-1)
				}
			})
		})
	}
}

// TestHooksNilFields checks that partially filled hooks only feed the
// histograms that exist.
func TestHooksNilFields(t *testing.T) {
	h := &Hooks{Handoff: &stats.Histogram{}}
	l := NewTTS(WithHooks(h))
	for i := 0; i < 10; i++ {
		l.Lock()
		l.Unlock()
	}
	if h.Handoff.Count != 9 {
		t.Fatalf("handoff samples = %d, want 9", h.Handoff.Count)
	}
}

// TestUncontendedReacquire pins the serialized semantics every primitive
// must share: one goroutine can acquire and release repeatedly.
func TestUncontendedReacquire(t *testing.T) {
	for _, k := range Kinds() {
		l, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			l.Lock()
			l.Unlock()
		}
	}
}
