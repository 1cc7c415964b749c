// Package wirebench holds the microbenchmark bodies of the serving hot
// path and of the simulator's event loop. They live outside _test files
// so two callers can share them: the conventional `go test -bench`
// wrappers in this package, and cmd/benchguard, which runs them via
// testing.Benchmark and gates CI on regressions against the committed
// BENCH_wire.json baseline.
//
// Absolute ns/op is machine-dependent, so the guard compares each
// benchmark's ratio to the Calibrate reference — a fixed CPU-bound loop
// measured in the same process — which transfers across machines far
// better than raw nanoseconds. Allocation counts are exact and compare
// directly.
package wirebench

import (
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"iqolb/internal/experiments"
	"iqolb/internal/machine"
	"iqolb/internal/service"
	"iqolb/internal/workload"
)

// Case is one guarded benchmark. SlackFactor scales the guard's base
// tolerance: the pure-CPU codec cases repeat within a few percent and
// stay tightly gated, while the socket round trips carry scheduler and
// loopback noise that would make a tight gate flaky.
type Case struct {
	Name        string
	Fn          func(*testing.B)
	SlackFactor float64
}

// All returns the guarded benchmark set, Calibrate excluded.
func All() []Case {
	return []Case{
		{Name: "WireEncode", Fn: Encode, SlackFactor: 1},
		{Name: "WireDecode", Fn: Decode, SlackFactor: 1},
		{Name: "ServerRoundtrip", Fn: ServerRoundtrip, SlackFactor: 3},
		{Name: "ServerRoundtripPipelined", Fn: ServerRoundtripPipelined, SlackFactor: 3},
		{Name: "SimulatorHotlockTTS", Fn: SimulatorHotlockTTS, SlackFactor: 2},
	}
}

// Calibrate is the machine-speed reference: a fixed integer loop with a
// data dependency so it cannot be vectorized away.
func Calibrate(b *testing.B) {
	var acc uint64 = 0x9e3779b97f4a7c15
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			acc ^= acc >> 12
			acc *= 0x2545f4914f6cdd1d
		}
	}
	if acc == 0 {
		b.Fatal("unreachable")
	}
}

var benchReq = service.Request{
	Version:  service.WireVersion3,
	ID:       42,
	Op:       service.OpAcquire,
	Resource: "res-bench",
	Owner:    "owner-bench",
	TTL:      5 * time.Second,
	MaxWait:  time.Second,
	Wait:     true,
	Deadline: 1234567890,
}

var benchResp = service.Response{
	Version:  service.WireVersion3,
	ID:       42,
	Op:       service.OpGranted,
	Token:    7,
	Fence:    9,
	Deadline: 1234567890,
}

// Encode measures one request + one response append into a reused
// buffer — the per-op encode cost of a pipelined round trip.
func Encode(b *testing.B) {
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := service.AppendRequest(buf[:0], benchReq)
		if err != nil {
			b.Fatal(err)
		}
		out, err = service.AppendResponse(out, benchResp)
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}

// Decode measures one request + one response decode through a warm
// Decoder — the per-op decode cost of a pipelined round trip.
func Decode(b *testing.B) {
	reqFrame, err := service.AppendRequest(nil, benchReq)
	if err != nil {
		b.Fatal(err)
	}
	respFrame, err := service.AppendResponse(nil, benchResp)
	if err != nil {
		b.Fatal(err)
	}
	dec := service.NewDecoder()
	r := bytes.NewReader(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(reqFrame)
		if _, err := dec.ReadRequest(r); err != nil {
			b.Fatal(err)
		}
		r.Reset(respFrame)
		if _, err := dec.ReadResponse(r); err != nil {
			b.Fatal(err)
		}
	}
}

// startBackend boots a real service + TCP server for the round-trip
// benchmarks.
func startBackend(b *testing.B, opt service.ServerOptions) (addr string, stop func()) {
	svc, err := service.New(service.Config{
		Shards:     8,
		QueueDepth: 256,
		DefaultTTL: 30 * time.Second,
		MaxTTL:     time.Minute,
	})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		b.Fatal(err)
	}
	srv := service.NewServerWithOptions(svc, opt)
	go srv.Serve(ln)
	return ln.Addr().String(), func() {
		srv.Close()
		svc.Close()
	}
}

// ServerRoundtrip is the one-in-flight baseline: a lock-step v2 client
// doing acquire+release pairs over loopback TCP.
func ServerRoundtrip(b *testing.B) {
	addr, stop := startBackend(b, service.ServerOptions{})
	defer stop()
	cl, err := service.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	cl.SetOpTimeout(30 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lease, err := cl.Acquire("res-bench", "owner-bench", service.AcquireOptions{TTL: time.Second})
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.ReleaseFenced("res-bench", lease.Token, lease.Fence); err != nil {
			b.Fatal(err)
		}
	}
}

// ServerRoundtripPipelined is the pipelined dispatch path: one
// connection, a 32-deep window, 32 concurrent actors on private
// resources. It deliberately runs WITHOUT write coalescing: a single
// otherwise-idle connection goes fully quiet during a flush window, the
// lone P parks in netpoll, and sub-millisecond flush timers then fire
// at the poller's ~1ms granularity — the benchmark would gate kernel
// timer behavior, not our code. Coalescing's win needs concurrent
// connections keeping the scheduler busy; BENCH_throughput.json's
// 16-client sweep is where that is measured and committed.
func ServerRoundtripPipelined(b *testing.B) {
	const window = 32
	addr, stop := startBackend(b, service.ServerOptions{Window: window})
	defer stop()
	cl, err := service.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	cl.SetOpTimeout(30 * time.Second)
	if err := cl.Pipeline(window, 0); err != nil {
		b.Fatal(err)
	}
	var worker atomic.Int32
	b.ReportAllocs()
	b.SetParallelism(window) // window actors share the one pipelined conn
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1)
		res := fmt.Sprintf("res-bench-%d", w)
		owner := fmt.Sprintf("owner-%d", w)
		for pb.Next() {
			lease, err := cl.Acquire(res, owner, service.AcquireOptions{TTL: time.Second, Wait: true, MaxWait: 30 * time.Second})
			if err != nil {
				b.Fatal(err)
			}
			if err := cl.ReleaseFenced(res, lease.Token, lease.Fence); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// SimulatorHotlockTTS measures the simulator's event loop: one op is one
// machine.Run of the contended hotlock kernel under TTS on 8 processors
// (scale 4, about 114k events). Workload generation and machine
// construction run with the timer stopped, so ns/op and allocs/op are
// the event loop's alone.
func SimulatorHotlockTTS(b *testing.B) {
	const procs = 8
	spec, err := workload.ByName("hotlock")
	if err != nil {
		b.Fatal(err)
	}
	p := experiments.Scale(spec.Params, 4, procs)
	sys := experiments.SysTTS
	var events uint64
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		bld, err := workload.Generate(p, sys.Primitive, procs)
		if err != nil {
			b.Fatal(err)
		}
		m, err := machine.New(sys.MachineConfig(procs), bld.Program, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range bld.Locks {
			m.RegisterLockAddr(l)
		}
		b.StartTimer()
		_, err = m.Run()
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		events += m.Engine().Fired()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
