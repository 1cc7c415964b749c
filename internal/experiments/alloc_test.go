package experiments

import (
	"runtime"
	"testing"

	"iqolb/internal/machine"
	"iqolb/internal/workload"
)

// TestSimulatorEventAllocs: the simulator's steady-state event loop is
// allocation-free. A contended TTS hotlock run may allocate at most 0.1
// times per fired event (maps and free lists still grow while it warms
// up), counted around Run alone.
func TestSimulatorEventAllocs(t *testing.T) {
	const procs = 8
	spec, err := workload.ByName("hotlock")
	if err != nil {
		t.Fatal(err)
	}
	p := Scale(spec.Params, 4, procs)
	bld, err := workload.Generate(p, SysTTS.Primitive, procs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(SysTTS.MachineConfig(procs), bld.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range bld.Locks {
		m.RegisterLockAddr(l)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := m.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := bld.VerifyCounters(p, m.Peek); err != nil {
		t.Fatal(err)
	}
	events := m.Engine().Fired()
	mallocs := after.Mallocs - before.Mallocs
	perEvent := float64(mallocs) / float64(events)
	t.Logf("%d cycles, %d events, %d mallocs (%.4f per event)", res.Cycles, events, mallocs, perEvent)
	if perEvent > 0.1 {
		t.Fatalf("%.3f mallocs per fired event, want at most 0.1", perEvent)
	}
}
