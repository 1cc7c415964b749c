package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"iqolb/internal/experiments"
	"iqolb/internal/harness"
	"iqolb/internal/machine"
	"iqolb/internal/workload"
)

// table3Procs is the machine size the paper's Table 3 evaluates.
const table3Procs = 32

// table3SetUps is how many times a table3 run sets up; setup_s is the
// median.
const table3SetUps = 7

// expected holds the committed exact simulator counts of one job.
type expected struct {
	Cycles uint64 `json:"cycles"`
	BusTx  uint64 `json:"bus_tx"`
}

// table3Specs is the whole of Table 3, in experiments.Table3Data's
// order: per benchmark, TTS at 1 processor, then TTS, QOLB and IQOLB
// at 32.
func table3Specs() []experiments.Spec {
	var specs []experiments.Spec
	for _, w := range workload.Specs() {
		specs = append(specs,
			experiments.Spec{Bench: w.Name, System: experiments.SysTTS.Name, Procs: 1},
			experiments.Spec{Bench: w.Name, System: experiments.SysTTS.Name, Procs: table3Procs},
			experiments.Spec{Bench: w.Name, System: experiments.SysQOLB.Name, Procs: table3Procs},
			experiments.Spec{Bench: w.Name, System: experiments.SysIQOLB.Name, Procs: table3Procs})
	}
	return specs
}

func label(s experiments.Spec) string { return fmt.Sprintf("%s/%s/p%d", s.Bench, s.System, s.Procs) }

func loadExpected(path string) (map[string]expected, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]expected
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// batch is one RunSpecs run of the whole table.
type batch struct {
	results []experiments.Result
	m       *harness.Manifest
	wall    time.Duration
	cpu     time.Duration // the process's CPU time during the batch
}

func runBatch(specs []experiments.Spec, workers int) (batch, error) {
	p0, t0 := sampleProc(), time.Now()
	rs, m, err := experiments.RunSpecs(experiments.Options{Jobs: workers}, specs)
	if err != nil {
		return batch{}, fmt.Errorf("RunSpecs: %w", err)
	}
	return batch{results: rs, m: m, wall: time.Since(t0), cpu: sampleProc().since(p0).cpu()}, nil
}

func (b batch) jobSeconds() []float64 {
	out := make([]float64, len(b.m.Records))
	for i, r := range b.m.Records {
		out[i] = r.WallMS / 1e3
	}
	return out
}

func (b batch) cycles() float64 {
	var c float64
	for _, r := range b.results {
		c += float64(r.Cycles)
	}
	return c
}

// runTable3 runs the table3 workload: whole batches through the harness
// until d has passed (at least one), checked against the committed
// counts. Traced, it also re-runs every job through workload.Generate,
// machine.New and Run directly, timing each layer.
func runTable3(d time.Duration, traced bool, expectedPath string, res *result) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > 2 {
		workers = 2
	}
	cal0 := calibNS()
	var setupS []float64
	var specs []experiments.Spec
	var want map[string]expected
	for i := 0; i < table3SetUps; i++ {
		runtime.GC() // every set-up starts from the same heap
		t0 := time.Now()
		specs = table3Specs()
		w, err := loadExpected(expectedPath)
		if err != nil {
			return err
		}
		want = w
		for _, s := range specs {
			if _, err := setUpJob(s); err != nil {
				return fmt.Errorf("%s: %w", label(s), err)
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	var batches []batch
	start := time.Now()
	before := sampleProc()
	for len(batches) == 0 || time.Since(start) < d {
		b, err := runBatch(specs, workers)
		res.ops(int64(len(specs)), 0)
		if err != nil {
			res.ops(0, int64(len(specs)))
			return err
		}
		batches = append(batches, b)
	}
	proc := sampleProc().since(before)
	cal := (cal0 + calibNS()) / 2
	slow := cal / refCalibNS
	for i, b := range batches {
		checkTable3(res, fmt.Sprintf("batch %d ", i+1), specs, b, want)
	}

	var walls, ranWalls, cps, cpuRates, p50s, tails []float64
	for _, b := range batches {
		js := b.jobSeconds()
		// ran is the part of the jobs' summed host time in which the
		// process ran; the host took the rest away (stolen time).
		ran := math.Min(1, b.cpu.Seconds()/sum(js))
		walls = append(walls, b.wall.Seconds())
		ranWalls = append(ranWalls, b.wall.Seconds()*ran)
		cps = append(cps, b.cycles()/sum(js))
		cpuRates = append(cpuRates, b.cycles()/b.cpu.Seconds())
		tails = append(tails, maxOf(js))
		p50s = append(p50s, median(js)*1e6)
	}
	simWall, simCPS := median(walls), median(cps)
	fmt.Fprintf(res.out, "metrics (untraced, %d batch(es) of %d jobs on %d workers):\n", len(batches), len(specs), workers)
	res.line("leases_per_s", math.NaN(), "1/s", "table3 runs no serving code")
	res.line("acquire_p50_us", math.NaN(), "us", "table3 runs no serving code")
	res.line("acquire_p99_us", math.NaN(), "us", "table3 runs no serving code")
	res.line("failed_share", res.failedShare(), "ratio", fmt.Sprintf("%d of %d jobs and checks", res.failed, res.attempted))
	res.line("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups (spec build, committed counts, workload.Generate and machine.New of all %d jobs)", len(setupS), len(specs)))
	res.line("sim_wall_s", simWall, "s", fmt.Sprintf("median of %d batch(es)", len(batches)))
	res.line("sim_cycles_per_s", simCPS, "1/s", fmt.Sprintf("simulated cycles / job host seconds, n=%d jobs per batch", len(specs)))
	res.line("slowest_job_s", median(tails), "s", "median over batches of the slowest job's host time")
	res.line("job_p50_us", median(p50s), "us", "median over batches of the median job's host time")
	fmt.Fprintf(res.out, "gated: time the host stole from the process left out, scaled to a host whose calibration reads %.0f ns/op (here %.1f, mean of before and after)\n", refCalibNS, cal)
	res.line("throughput_per_s", median(cpuRates)*slow, "1/s", "simulated cycles per process CPU second, median over batches")
	res.line("latency_p50_us", median(ranWalls)*1e6/slow, "us", "batch wall time x the share of job host time the process ran, median over batches")
	res.line("setup_s", median(setupS)/slow, "s", "")
	res.set("throughput_per_s", median(cpuRates)*slow)
	res.set("latency_p50_us", median(ranWalls)*1e6/slow)
	res.set("setup_s", median(setupS)/slow)
	if !traced {
		return nil
	}

	for _, m := range perLayer {
		res.set(m.name, 0)
	}
	last := batches[len(batches)-1]
	js := last.jobSeconds()
	busy := sum(js)
	res.set("harness.critical_job_s", maxOf(js))
	res.set("harness.worker_idle_share", 1-busy/(float64(workers)*last.wall.Seconds()))
	res.set("proc.sys_share", proc.sysShare())
	res.set("go.gc_cycles", float64(proc.gcCycles))
	res.set("go.gc_pause_ms", float64(proc.gcPauseNS)/1e6)
	return layerTable3(res, specs, last, workers, busy)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// checkTable3 compares every job's exact counts with the committed ones
// and checks that nothing came from the result cache.
func checkTable3(res *result, prefix string, specs []experiments.Spec, b batch, want map[string]expected) {
	bad := 0
	var first string
	for i, s := range specs {
		got := expected{Cycles: b.results[i].Cycles, BusTx: b.results[i].BusTransactions}
		if w, ok := want[label(s)]; !ok || w != got {
			bad++
			if first == "" {
				first = fmt.Sprintf("; first: %s got %+v want %+v", label(s), got, w)
			}
		}
	}
	res.check(prefix+"cycles and bus tx", bad == 0, fmt.Sprintf("%d of %d jobs differ%s", bad, len(specs), first))
	res.check(prefix+"cache hits", b.m.CacheHits == 0, fmt.Sprintf("%d hits", b.m.CacheHits))
}

// jobTiming is one directly-run job's layer times and exact counts.
type jobTiming struct {
	system              string
	generate, newM, run time.Duration
	events, instr       uint64
	cycles, busTx       uint64
	err                 error
}

// jobStart is one job made ready to simulate: its generated program on
// a new machine, with the layer times it took.
type jobStart struct {
	p              workload.Params
	bld            *workload.Build
	m              *machine.Machine
	generate, newM time.Duration
}

// setUpJob does what experiments.RunSpec does before a job's first
// simulated cycle, timing each layer from outside.
func setUpJob(s experiments.Spec) (jobStart, error) {
	var js jobStart
	sys, err := experiments.SystemByName(s.System)
	if err != nil {
		return js, err
	}
	w, err := workload.ByName(s.Bench)
	if err != nil {
		return js, err
	}
	js.p = experiments.Scale(w.Params, 1, s.Procs)
	t0 := time.Now()
	js.bld, err = workload.Generate(js.p, sys.Primitive, s.Procs)
	js.generate = time.Since(t0)
	if err != nil {
		return js, err
	}
	t0 = time.Now()
	js.m, err = machine.New(sys.MachineConfig(s.Procs), js.bld.Program, nil)
	js.newM = time.Since(t0)
	if err != nil {
		return js, err
	}
	for _, l := range js.bld.Locks {
		js.m.RegisterLockAddr(l)
	}
	return js, nil
}

// runJob runs one spec the way experiments.RunSpec does, timing each
// layer from outside.
func runJob(s experiments.Spec) jobTiming {
	jt := jobTiming{system: s.System}
	js, err := setUpJob(s)
	jt.generate, jt.newM = js.generate, js.newM
	if err != nil {
		jt.err = err
		return jt
	}
	m := js.m
	t0 := time.Now()
	r, err := m.Run()
	jt.run = time.Since(t0)
	if err == nil && r.HitLimit {
		err = experiments.ErrCycleLimit
	}
	if err == nil {
		err = js.bld.VerifyCounters(js.p, m.Peek)
	}
	jt.err = err
	jt.events = m.Engine().Fired()
	jt.cycles = r.Cycles
	if r.Stats != nil {
		jt.busTx = r.Stats.BusTransactions
	}
	for _, c := range r.PerCPU {
		jt.instr += c.Instructions
	}
	return jt
}

// layerTable3 re-runs every job directly on the same number of workers
// and derives the simulator's per-layer metrics.
func layerTable3(res *result, specs []experiments.Spec, b batch, workers int, batchBusy float64) error {
	jts := make([]jobTiming, len(specs))
	before := sampleProc()
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(specs) {
					return
				}
				jts[i] = runJob(specs[i])
			}
		}()
	}
	wg.Wait()
	proc := sampleProc().since(before)

	var gen, newM, run time.Duration
	var events, instr, busTx uint64
	bySys := map[string][2]float64{} // run ns, events
	mismatch := 0
	for i, jt := range jts {
		if jt.err != nil {
			res.ops(1, 1)
			return fmt.Errorf("%s: %w", label(specs[i]), jt.err)
		}
		if jt.cycles != b.results[i].Cycles || jt.busTx != b.results[i].BusTransactions {
			mismatch++
		}
		gen += jt.generate
		newM += jt.newM
		run += jt.run
		events += jt.events
		instr += jt.instr
		busTx += jt.busTx
		v := bySys[jt.system]
		bySys[jt.system] = [2]float64{v[0] + float64(jt.run), v[1] + float64(jt.events)}
	}
	res.check("direct runs match the batch", mismatch == 0, fmt.Sprintf("%d of %d jobs differ in cycles or bus tx", mismatch, len(specs)))
	res.set("workload.generate_ms", float64(gen)/1e6)
	res.set("machine.new_ms", float64(newM)/1e6)
	res.set("engine.events", float64(events))
	res.set("engine.ns_per_event", float64(run)/float64(events))
	res.set("sim.instructions", float64(instr))
	for _, sys := range []string{"tts", "qolb", "iqolb"} {
		v := bySys[sys]
		res.set("sim."+sys+".ns_per_event", v[0]/v[1])
	}
	res.set("go.mallocs_per_event", float64(proc.mallocs)/float64(events))
	res.set("coherence.bus_tx", float64(busTx))
	res.set("coherence.ns_per_bus_tx", float64(run)/float64(busTx))
	direct := (gen + newM + run).Seconds()
	res.set("bench.trace_overhead_share", direct/batchBusy-1)

	fmt.Fprintf(res.out, "attribution of job host time (direct re-run, %d jobs): generate %.0f ms, machine.New %.0f ms, Run %.0f ms (%.0f ns/event)\n",
		len(specs), float64(gen)/1e6, float64(newM)/1e6, float64(run)/1e6, float64(run)/float64(events))
	return nil
}

// writeExpected records the batch's exact counts as the committed
// reference; run it only when a simulator change is meant to alter them.
func writeExpected(path string) error {
	specs := table3Specs()
	b, err := runBatch(specs, 2)
	if err != nil {
		return err
	}
	m := map[string]expected{}
	for i, s := range specs {
		m[label(s)] = expected{Cycles: b.results[i].Cycles, BusTx: b.results[i].BusTransactions}
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
