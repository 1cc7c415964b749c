package service

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// checkHeap asserts, for every shard, that the expiry heap holds
// exactly the live leases: one entry per held resource, each entry's
// index correct, and the min-heap order intact.
func checkHeap(t *testing.T, s *Service, when string) {
	t.Helper()
	for _, sh := range s.shards {
		tok := sh.lockShard()
		held := 0
		for _, r := range sh.res {
			if r.holder != nil {
				held++
				if i := r.holder.idx; i >= len(sh.heap) || sh.heap[i] != r.holder {
					t.Errorf("%s: shard %d: lease on %q not at its heap index %d", when, sh.id, r.name, i)
				}
			}
		}
		if len(sh.heap) != sh.live || held != sh.live {
			t.Errorf("%s: shard %d: heap %d entries, live %d, held %d", when, sh.id, len(sh.heap), sh.live, held)
		}
		for i, ls := range sh.heap {
			if ls.idx != i {
				t.Errorf("%s: shard %d: entry %d records index %d", when, sh.id, i, ls.idx)
			}
			if p := (i - 1) / 2; i > 0 && sh.heap[p].deadline > ls.deadline {
				t.Errorf("%s: shard %d: heap order broken at %d", when, sh.id, i)
			}
		}
		sh.unlockShard(tok)
	}
}

// TestLeaseHeapPrivatePairs is the wire-sat shape in process: many
// acquire/release pairs on private resources, some leases held across
// others. The heap must never keep an entry for an ended lease.
func TestLeaseHeapPrivatePairs(t *testing.T) {
	s, _ := newTestService(t, nil)
	const pairs, held = 10_000, 64
	var live []Lease
	for i := 0; i < pairs; i++ {
		l, err := s.Acquire(fmt.Sprintf("p%d", i), "w", AcquireOptions{TTL: time.Duration(1+i%5) * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, l)
		if len(live) > held {
			// Release out of deadline order to exercise mid-heap removal.
			j := (i * 7) % len(live)
			if err := s.Release(live[j].Resource, live[j].Token); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		}
	}
	checkHeap(t, s, "while holding")
	for _, l := range live {
		if err := s.Release(l.Resource, l.Token); err != nil {
			t.Fatal(err)
		}
	}
	checkHeap(t, s, "all released")
	for _, sh := range s.shards {
		if len(sh.heap) != 0 {
			t.Fatalf("shard %d keeps %d heap entries with no lease live", sh.id, len(sh.heap))
		}
	}
}

// TestLeaseHeapRevokeDrainExpiry mixes every way a lease ends — release,
// revoke, expiry with a hand-off to a queued waiter, and the drain's
// revoke pass — on a FakeClock, checking the heap after each step and
// that expiry still fires for exactly the leases held past their TTL.
func TestLeaseHeapRevokeDrainExpiry(t *testing.T) {
	expired := map[uint64]bool{}
	s, clk := newTestService(t, func(c *Config) {
		c.OnExpire = func(l Lease) { expired[l.Token] = true }
	})
	var short, long []Lease
	for i := 0; i < 40; i++ {
		ttl := 10 * time.Second
		if i%2 == 0 {
			ttl = time.Second
		}
		l, err := s.Acquire(fmt.Sprintf("r%d", i), "w", AcquireOptions{TTL: ttl})
		if err != nil {
			t.Fatal(err)
		}
		if ttl == time.Second {
			short = append(short, l)
		} else {
			long = append(long, l)
		}
	}
	// Revoke a quarter of the short leases and release another quarter.
	for i, l := range short[:10] {
		if i%2 == 0 {
			if _, ok, err := s.Revoke(l.Resource); err != nil || !ok {
				t.Fatalf("revoke %s: %v %v", l.Resource, ok, err)
			}
		} else if err := s.Release(l.Resource, l.Token); err != nil {
			t.Fatal(err)
		}
	}
	checkHeap(t, s, "after revoke/release")

	// A waiter queued behind a short lease is handed the resource when
	// that lease expires; its own lease must enter the heap.
	waiterRes := short[10].Resource
	granted := make(chan Lease, 1)
	go func() {
		l, err := s.Acquire(waiterRes, "waiter", AcquireOptions{Wait: true, TTL: 10 * time.Second})
		if err != nil {
			t.Error(err)
		}
		granted <- l
	}()
	waitQueued(t, s, waiterRes, 1)

	clk.Advance(2 * time.Second)
	if n := s.SweepExpired(); n != len(short)-10 {
		t.Fatalf("swept %d expiries, want %d", n, len(short)-10)
	}
	for _, l := range short[10:] {
		if !expired[l.Token] {
			t.Fatalf("held lease %d on %s never expired", l.Token, l.Resource)
		}
	}
	for _, l := range append(short[:10:10], long...) {
		if expired[l.Token] {
			t.Fatalf("lease %d on %s expired, but it ended earlier or is not due", l.Token, l.Resource)
		}
	}
	w := <-granted
	checkHeap(t, s, "after expiry hand-off")
	if got := s.liveLeaseCount(); got != len(long)+1 {
		t.Fatalf("live = %d, want %d", got, len(long)+1)
	}

	// The drain's revoke pass ends everything still held.
	if err := s.Drain(0); err != nil {
		t.Fatal(err)
	}
	checkHeap(t, s, "after drain")
	if err := s.Release(w.Resource, w.Token); !errors.Is(err, ErrRevoked) {
		t.Fatalf("release after drain: %v, want ErrRevoked", err)
	}
	for _, sh := range s.shards {
		if len(sh.heap) != 0 || sh.live != 0 {
			t.Fatalf("shard %d after drain: heap %d live %d", sh.id, len(sh.heap), sh.live)
		}
	}
}
