package proc

import (
	"testing"

	"iqolb/internal/engine"
	"iqolb/internal/isa"
	"iqolb/internal/mem"
)

// fakePort is a flat functional memory with a fixed latency and trivially
// always-successful SC, sufficient for exercising the core in isolation.
type fakePort struct {
	eng     *engine.Engine
	latency engine.Time
	mem     map[mem.Addr]uint64
	ops     []mem.AccessKind
}

func newFakePort(eng *engine.Engine, lat engine.Time) *fakePort {
	return &fakePort{eng: eng, latency: lat, mem: make(map[mem.Addr]uint64)}
}

func (f *fakePort) Access(req mem.Request) {
	f.ops = append(f.ops, req.Kind)
	f.eng.After(f.latency, func(engine.Time) {
		var res mem.Result
		switch req.Kind {
		case mem.Load, mem.LoadLinked:
			res.Value = f.mem[req.Addr]
		case mem.Store:
			f.mem[req.Addr] = req.Value
		case mem.StoreCond:
			f.mem[req.Addr] = req.Value
			res.OK = true
		case mem.SwapOp:
			res.Value = f.mem[req.Addr]
			f.mem[req.Addr] = req.Value
		}
		req.Done(res)
	})
}

type fakePlat struct {
	halts    int
	barriers map[int64][]func()
	procs    int
}

func (f *fakePlat) Barrier(ep int64, cpu int, release func()) {
	if f.barriers == nil {
		f.barriers = make(map[int64][]func())
	}
	f.barriers[ep] = append(f.barriers[ep], release)
	if len(f.barriers[ep]) == f.procs {
		for _, r := range f.barriers[ep] {
			r()
		}
		delete(f.barriers, ep)
	}
}

func (f *fakePlat) Halted(int) { f.halts++ }

func run1(t *testing.T, src string, width int) (*CPU, *fakePort, *engine.Engine) {
	t.Helper()
	eng := engine.New()
	port := newFakePort(eng, 1)
	plat := &fakePlat{procs: 1}
	cpu := New(0, 1, Config{IssueWidth: width}, isa.MustAssemble(src), eng, port, plat)
	cpu.Start()
	if _, hit := eng.Run(1_000_000); hit {
		t.Fatal("run hit cycle limit")
	}
	if !cpu.Halted() {
		t.Fatal("cpu did not halt")
	}
	return cpu, port, eng
}

func TestALUAndBranches(t *testing.T) {
	cpu, _, _ := run1(t, `
	  li   t0, 10
	  li   t1, 3
	  add  t2, t0, t1     # 13
	  sub  t3, t0, t1     # 7
	  mul  t4, t0, t1     # 30
	  div  t5, t0, t1     # 3
	  rem  t6, t0, t1     # 1
	  slt  t7, t1, t0     # 1
	  li   s0, 0
	loop:
	  addi s0, s0, 1
	  blt  s0, t1, loop   # runs 3 times
	  halt
	`, 1)
	want := map[isa.Reg]uint64{
		isa.T2: 13, isa.T3: 7, isa.T4: 30, isa.T5: 3, isa.T6: 1, isa.T7: 1, isa.S0: 3,
	}
	for r, v := range want {
		if got := cpu.Reg(r); got != v {
			t.Errorf("reg %s = %d, want %d", isa.RegName(r), got, v)
		}
	}
}

func TestR0Hardwired(t *testing.T) {
	cpu, _, _ := run1(t, "addi r0, r0, 99\n add r1, r0, r0\n halt", 1)
	if cpu.Reg(isa.R0) != 0 || cpu.Reg(1) != 0 {
		t.Fatal("r0 not hardwired to zero")
	}
}

func TestMemoryOps(t *testing.T) {
	cpu, port, _ := run1(t, `
	  li   a0, 64
	  li   t0, 7
	  sw   t0, 0(a0)
	  lw   t1, 0(a0)     # 7
	  ll   t2, 0(a0)     # 7
	  addi t2, t2, 1
	  sc   t2, 0(a0)     # success -> t2=1
	  lw   t3, 0(a0)     # 8
	  li   t4, 99
	  swap t4, 0(a0)     # t4=8, mem=99
	  lw   t5, 0(a0)     # 99
	  halt
	`, 4)
	if cpu.Reg(isa.T1) != 7 || cpu.Reg(isa.T2) != 1 || cpu.Reg(isa.T3) != 8 ||
		cpu.Reg(isa.T4) != 8 || cpu.Reg(isa.T5) != 99 {
		t.Fatalf("regs: t1=%d t2=%d t3=%d t4=%d t5=%d", cpu.Reg(isa.T1), cpu.Reg(isa.T2),
			cpu.Reg(isa.T3), cpu.Reg(isa.T4), cpu.Reg(isa.T5))
	}
	if cpu.MemOps != 7 || len(port.ops) != 7 {
		t.Fatalf("memops = %d/%d, want 7", cpu.MemOps, len(port.ops))
	}
}

func TestJalJr(t *testing.T) {
	cpu, _, _ := run1(t, `
	  li  s0, 0
	  jal fn
	  jal fn
	  halt
	fn:
	  addi s0, s0, 1
	  jr  lr
	`, 1)
	if cpu.Reg(isa.S0) != 2 {
		t.Fatalf("s0 = %d, want 2 (two calls)", cpu.Reg(isa.S0))
	}
}

func TestWorkConsumesCycles(t *testing.T) {
	_, _, eng := run1(t, "work 500\n halt", 4)
	if eng.Now() < 500 {
		t.Fatalf("run finished at %d, want >= 500", eng.Now())
	}
	cpuFast, _, engFast := run1(t, "halt", 4)
	if engFast.Now() >= 500 {
		t.Fatal("control run too slow")
	}
	_ = cpuFast
}

func TestWorkrUsesRegister(t *testing.T) {
	cpu, _, eng := run1(t, "li t0, 300\n workr t0\n halt", 1)
	if eng.Now() < 300 {
		t.Fatalf("workr finished at %d, want >= 300", eng.Now())
	}
	if cpu.WorkCycles != 300 {
		t.Fatalf("WorkCycles = %d, want 300", cpu.WorkCycles)
	}
}

func TestIssueWidthSpeedsUpALU(t *testing.T) {
	src := `
	  li t0, 0
	  li t1, 1000
	loop:
	  addi t0, t0, 1
	  nop
	  nop
	  blt t0, t1, loop
	  halt
	`
	_, _, e1 := run1(t, src, 1)
	_, _, e4 := run1(t, src, 4)
	if e4.Now()*2 >= e1.Now() {
		t.Fatalf("width 4 (%d cycles) not at least 2x faster than width 1 (%d)", e4.Now(), e1.Now())
	}
}

func TestRandDeterministicAndBounded(t *testing.T) {
	src := "rand t0, 16\n rand t1, 16\n rand t2, 16\n halt"
	a, _, _ := run1(t, src, 1)
	b, _, _ := run1(t, src, 1)
	for _, r := range []isa.Reg{isa.T0, isa.T1, isa.T2} {
		if a.Reg(r) != b.Reg(r) {
			t.Fatal("rand not deterministic across identical runs")
		}
		if a.Reg(r) >= 16 {
			t.Fatalf("rand out of bounds: %d", a.Reg(r))
		}
	}
	// Different CPU ids draw different streams.
	eng := engine.New()
	port := newFakePort(eng, 1)
	plat := &fakePlat{procs: 1}
	c1 := New(1, 2, Config{IssueWidth: 1}, isa.MustAssemble(src), eng, port, plat)
	c1.Start()
	eng.Run(0)
	same := 0
	for _, r := range []isa.Reg{isa.T0, isa.T1, isa.T2} {
		if a.Reg(r) == c1.Reg(r) {
			same++
		}
	}
	if same == 3 {
		t.Fatal("two CPU ids produced identical rand streams")
	}
}

func TestCpuidProcs(t *testing.T) {
	eng := engine.New()
	port := newFakePort(eng, 1)
	plat := &fakePlat{procs: 1}
	cpu := New(5, 8, Config{IssueWidth: 1}, isa.MustAssemble("cpuid t0\n procs t1\n halt"), eng, port, plat)
	cpu.Start()
	eng.Run(0)
	if cpu.Reg(isa.T0) != 5 || cpu.Reg(isa.T1) != 8 {
		t.Fatalf("cpuid/procs = %d/%d, want 5/8", cpu.Reg(isa.T0), cpu.Reg(isa.T1))
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	eng := engine.New()
	port := newFakePort(eng, 1)
	plat := &fakePlat{procs: 2}
	// P0 works long before the barrier; P1 reaches it immediately. Both
	// must leave together.
	fast := isa.MustAssemble("bar 1\n halt")
	slow := isa.MustAssemble("work 1000\n bar 1\n halt")
	c0 := New(0, 2, Config{IssueWidth: 1}, slow, eng, port, plat)
	c1 := New(1, 2, Config{IssueWidth: 1}, fast, eng, port, plat)
	c0.Start()
	c1.Start()
	eng.Run(0)
	if plat.halts != 2 {
		t.Fatalf("halts = %d, want 2", plat.halts)
	}
	if c1.HaltedAt < 1000 {
		t.Fatalf("fast cpu halted at %d, before the slow one reached the barrier", c1.HaltedAt)
	}
}

func TestUnalignedAccessPanics(t *testing.T) {
	eng := engine.New()
	cpu := New(0, 1, Config{IssueWidth: 1},
		isa.MustAssemble("li a0, 3\n lw t0, 0(a0)\n halt"),
		eng, newFakePort(eng, 1), &fakePlat{procs: 1})
	cpu.Start()
	defer func() {
		if recover() == nil {
			t.Error("unaligned access did not panic")
		}
	}()
	eng.Run(0)
}

func TestInstructionCounting(t *testing.T) {
	cpu, _, _ := run1(t, "li t0, 1\n li t1, 2\n add t2, t0, t1\n halt", 4)
	if cpu.Instructions != 4 {
		t.Fatalf("Instructions = %d, want 4", cpu.Instructions)
	}
}

// holdPort keeps every request outstanding until the test completes it.
type holdPort struct{ held []mem.Request }

func (h *holdPort) Access(req mem.Request) { h.held = append(h.held, req) }

// TestStallNamesBlockingOp pins the deadlock-dump text for a blocked
// memory op ("<op> <addr>") and a parked barrier ("barrier <episode>").
func TestStallNamesBlockingOp(t *testing.T) {
	eng := engine.New()
	port := &holdPort{}
	plat := &fakePlat{procs: 2} // the barrier never fills
	src := `
	  li   a0, 64
	  li   t0, 1
	  work 5
	  sc   t0, 0(a0)
	  bar  7
	  halt
	`
	cpu := New(0, 1, Config{IssueWidth: 1}, isa.MustAssemble(src), eng, port, plat)
	cpu.Start()
	eng.Run(0)
	if len(port.held) != 1 {
		t.Fatalf("%d requests outstanding, want 1", len(port.held))
	}
	issued := eng.Now()
	want := Stall{CPU: 0, PC: 4, Waiting: "sc 0x40", Since: uint64(issued)}
	if got := cpu.Stall(); got != want {
		t.Fatalf("Stall() = %+v, want %+v", got, want)
	}

	eng.After(3, func(engine.Time) { port.held[0].Done(mem.Result{OK: true}) })
	eng.Run(0)
	want = Stall{CPU: 0, PC: 5, Waiting: "barrier 7", Since: uint64(issued) + 4}
	if got := cpu.Stall(); got != want {
		t.Fatalf("Stall() = %+v, want %+v", got, want)
	}
	if cpu.Reg(isa.T0) != 1 || cpu.MemCycles != 3 {
		t.Fatalf("after sc: t0 = %d, MemCycles = %d; want 1, 3", cpu.Reg(isa.T0), cpu.MemCycles)
	}
}
