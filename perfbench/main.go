// Command perfbench is the repository's end-to-end benchmark. It drives
// the lease service (client, server and core, in this process over
// loopback) and the Table 3 simulator batch through their public
// functions, checks their outputs, and prints the metrics BENCHMARK.json
// names:
//
//	perfbench --workload wire-sat --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --seed 1 --seconds 10 --trace 1
//
// --trace 0 reports the end-to-end metrics from an untraced run;
// --trace 1 reports the per-layer metrics from a run whose second half
// records spans at every boundary the benchmark can reach. The last
// line of standard output is one JSON object; a failed correctness
// check makes the exit status 1. README.md describes the workloads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"iqolb/internal/wirebench"
)

// pacedRate is the paced workload's fixed arrival rate. A lease costs
// about twice the CPU at this rate as in wire-sat's batches, so 10k/s
// keeps about a third of a 2-core host busy (a fifth of wire-sat's
// lease rate there).
const pacedRate = 10000

// Paths are relative to the repository root, where the benchmark runs.
const (
	expectedPath = "perfbench/table3_expected.json" // committed exact table3 counts
	spanDir      = ".bench_build/spans"             // where traced runs write spans
)

// workloads are the workloads BENCHMARK.json lists, which gate changes.
// paced also runs (alone, or with --workload all) but is not listed:
// on a shared 2-core host its latency is not steady enough to gate.
var workloads = []string{"wire-sat", "hot-handoff", "table3"}

// allWorkloads is what --workload all runs.
var allWorkloads = []string{"wire-sat", "hot-handoff", "paced", "table3"}

// shapeFor returns a serving workload's load, with at most nproc
// connections.
func shapeFor(name string, nproc int) (shape, bool) {
	var sh shape
	switch name {
	case "wire-sat":
		sh = shape{conns: 2, window: 16, workersPerConn: 16}
	case "hot-handoff":
		sh = shape{conns: 2, window: 8, workersPerConn: 8, resources: 2}
	case "paced":
		sh = shape{conns: 2, window: 16, workersPerConn: 16, rate: pacedRate}
	default:
		return shape{}, false
	}
	if sh.conns > nproc {
		total := sh.conns * sh.workersPerConn
		sh.window = sh.window * sh.conns / nproc
		sh.conns = nproc
		sh.workersPerConn = total / nproc
	}
	return sh, true
}

func describe(name string, sh shape) string {
	loop := "closed loop"
	if sh.rate > 0 {
		loop = fmt.Sprintf("open loop, Poisson arrivals at %.0f leases/s", sh.rate)
	}
	res := "private resources"
	if sh.resources > 0 {
		res = fmt.Sprintf("%d shared resources, seeded draw", sh.resources)
	}
	return fmt.Sprintf("%s: %s, %d connections x window %d, %d workers, %s; lockserve defaults",
		name, loop, sh.conns, sh.window, sh.workers(), res)
}

func main() {
	var (
		wl       = flag.String("workload", "", "workload: "+strings.Join(allWorkloads, ", ")+", or all")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		writeExp = flag.Bool("write-expected", false, "run the table3 batch once and commit its counts to "+expectedPath)
	)
	flag.Parse()
	if *writeExp {
		if err := writeExpected(expectedPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *wl == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	ok, err := runOne(*wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload and prints its report and summary line.
func runOne(name string, seed uint64, d time.Duration, traced bool) (bool, error) {
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	res := newResult(out)
	mode := "untraced"
	if traced {
		mode = "traced second half"
	}
	if sh, ok := shapeFor(name, nproc); ok {
		fmt.Fprintf(out, "workload %s (seed %d, %s)\n", describe(name, sh), seed, mode)
		if err := runServing(name, sh, seed, d, traced, spanDir, res); err != nil {
			return false, err
		}
	} else if name == "table3" {
		fmt.Fprintf(out, "workload table3: Table 3 (5 benchmarks x TTS p1, TTS/QOLB/IQOLB p32) via experiments.RunSpecs, result cache off (seed %d, %s)\n", seed, mode)
		if err := runTable3(d, traced, expectedPath, res); err != nil {
			return false, err
		}
	} else {
		return false, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(allWorkloads, ", "))
	}
	res.set("peak_rss_mb", peakRSSMiB())
	fmt.Fprintf(out, "  %-28s %14s %-6s %s\n", "peak_rss_mb", fmtValue(res.values["peak_rss_mb"]), "MiB", "peak resident set of this process")
	fmt.Fprintln(out, hostBlock(nproc))

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	s, err := res.summary(defs)
	if err != nil {
		return false, err
	}
	if err := writeSummary(out, s); err != nil {
		return false, err
	}
	return s.Correct, nil
}

// hostBlock describes the machine so numbers from different hosts can
// be compared.
func hostBlock(nproc int) string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s transport=loopback (server and load in this process) calib_ns_per_op=%.1f",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), calibNS())
}

// refCalibNS is the reference host's calibration reading, in ns/op.
// The gated timings are scaled to it: a time taken on this host is
// divided by cal/refCalibNS, where cal is the run's own reading (the
// mean of one before its set-up and one after its measured interval),
// and a rate is multiplied by it. On a shared host the program's speed
// drifts between sets of runs minutes apart; the calibration loop, which
// runs no code of the program, drifts the same way if by less, so the
// scaling takes out part of the drift. It is a round figure near what a
// 2-vCPU Intel Xeon VM reads; only its constancy matters.
const refCalibNS = 500.0

// calibNS times cmd/benchguard's calibration loop, in ns/op.
func calibNS() float64 {
	cal := testing.Benchmark(wirebench.Calibrate)
	return float64(cal.T.Nanoseconds()) / float64(cal.N)
}

// runAll runs every workload in its own child process, so each reports
// its own peak memory, and returns the exit status.
func runAll(seed uint64, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	all := summary{Correct: true, Metrics: map[string]metricValue{}}
	status := 0
	for _, wl := range allWorkloads {
		cmd := exec.Command(self, "--workload", wl, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		os.Stdout.Write(b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl, err)
			status = 1
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var s summary
		if json.Unmarshal([]byte(lines[len(lines)-1]), &s) != nil {
			all.Correct = false
			status = 1
			continue
		}
		all.Correct = all.Correct && s.Correct
		all.Attempted += s.Attempted
		all.Failed += s.Failed
		for k, v := range s.Metrics {
			all.Metrics[wl+"."+k] = v
		}
	}
	if !all.Correct {
		status = 1
	}
	if err := writeSummary(os.Stdout, all); err != nil {
		return 1
	}
	return status
}
