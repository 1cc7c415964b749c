package service

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// The zero-allocation contract of the hot-path codec: encoding appends
// into a caller-owned buffer and steady-state decoding reuses the
// Decoder's scratch and interned names. These are regression tests, not
// benchmarks — a refactor that sneaks an allocation into the codec
// fails here long before it shows up in a throughput sweep.

func TestEncodeAllocs(t *testing.T) {
	req := Request{
		Version:  WireVersion3,
		ID:       42,
		Op:       OpAcquire,
		Resource: "res-alloc",
		Owner:    "owner-alloc",
		TTL:      5 * time.Second,
		MaxWait:  time.Second,
		Wait:     true,
		Deadline: 1234567890,
	}
	resp := Response{
		Version:  WireVersion3,
		ID:       42,
		Op:       OpGranted,
		Token:    7,
		Fence:    9,
		Deadline: 1234567890,
	}
	buf := make([]byte, 0, wireHeaderLen+MaxPayload)
	if n := testing.AllocsPerRun(200, func() {
		out, err := AppendRequest(buf[:0], req)
		if err != nil || len(out) == 0 {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendRequest allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		out, err := AppendResponse(buf[:0], resp)
		if err != nil || len(out) == 0 {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendResponse allocates %.1f/op, want 0", n)
	}
}

func TestDecodeAllocs(t *testing.T) {
	reqFrame, err := AppendRequest(nil, Request{
		Version:  WireVersion3,
		ID:       42,
		Op:       OpAcquire,
		Resource: "res-alloc",
		Owner:    "owner-alloc",
		TTL:      5 * time.Second,
		Wait:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	respFrame, err := AppendResponse(nil, Response{
		Version:  WireVersion3,
		ID:       42,
		Op:       OpGranted,
		Token:    7,
		Fence:    9,
		Deadline: 1234567890,
	})
	if err != nil {
		t.Fatal(err)
	}

	dec := NewDecoder()
	r := bytes.NewReader(nil)
	// Warm up: the first decode of each name interns it (one allocation,
	// amortized over the connection's lifetime).
	r.Reset(reqFrame)
	if _, err := dec.ReadRequest(r); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		r.Reset(reqFrame)
		if _, err := dec.ReadRequest(r); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state ReadRequest allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		r.Reset(respFrame)
		if _, err := dec.ReadResponse(r); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state ReadResponse allocates %.1f/op, want 0", n)
	}
}

// TestPipelinedOpAllocs bounds the steady-state allocation budget of a
// full pipelined round trip (encode, coalesced write, server dispatch,
// response demux). It cannot be zero — channel-based wakeups and the
// service's lease bookkeeping are real — but the frame buffers, reply
// channels, and op timers are all pooled, so the budget must stay flat
// and small. The bound has headroom over the measured value; what it
// guards against is a per-op allocation sneaking back into the codec or
// router (each such slip costs whole allocations, not fractions).
func TestPipelinedOpAllocs(t *testing.T) {
	srv, addr := startServerOpts(t, nil, ServerOptions{})
	defer srv.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetOpTimeout(10 * time.Second)
	if err := cl.Pipeline(4, 0); err != nil {
		t.Fatal(err)
	}
	// Warm up pools, interner, and the connection's server-side state.
	for i := 0; i < 50; i++ {
		lease, err := cl.Acquire("res-alloc", "owner-alloc", AcquireOptions{TTL: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.ReleaseFenced("res-alloc", lease.Token, lease.Fence); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(200, func() {
		lease, err := cl.Acquire("res-alloc", "owner-alloc", AcquireOptions{TTL: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.ReleaseFenced("res-alloc", lease.Token, lease.Fence); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 40 // measured ~12 for acquire+release; headroom for scheduler noise
	if n > budget {
		t.Errorf("pipelined acquire+release allocates %.1f/op, budget %d", n, budget)
	}
}

// TestCoreOpAllocs pins the in-process service core at zero
// steady-state allocations for an uncontended acquire+release pair:
// lease records and resource entries are recycled per shard and the
// expiry heap is typed, so nothing is boxed or re-created per lease.
func TestCoreOpAllocs(t *testing.T) {
	s, err := New(Config{NoSweeper: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("res-%d", i)
	}
	pair := func(name string) {
		lease, err := s.Acquire(name, "owner-alloc", AcquireOptions{TTL: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ReleaseFenced(name, lease.Token, lease.Fence); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names { // warm up every shard's free lists
		pair(name)
	}
	i := 0
	if n := testing.AllocsPerRun(500, func() {
		pair(names[i%len(names)])
		i++
	}); n != 0 {
		t.Errorf("core acquire+release allocates %.1f/op, want 0", n)
	}
}
