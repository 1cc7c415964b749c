// Command benchguard is the performance regression gate for the serving
// hot path and the simulator's event loop. It runs the microbenchmarks
// of internal/wirebench in process via testing.Benchmark and compares
// them against the committed BENCH_wire.json baseline:
//
//	benchguard -write -o BENCH_wire.json    # refresh the baseline
//	benchguard -check BENCH_wire.json       # CI: exit 1 on regression
//
// Raw ns/op does not transfer between machines, so each benchmark is
// normalized by the in-process Calibrate reference loop and the gate
// compares that ratio; -tolerance (default 0.20) is the allowed
// fractional slowdown. Allocation counts are machine-independent and
// must not rise at all — the codec's 0 allocs/op is part of the wire
// contract, not a soft target, and the simulator's count is what keeps
// its event loop allocation-free.
//
// Exit codes follow the repo convention: 0 pass, 1 regression or
// runtime failure, 2 unusable configuration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"iqolb/internal/wirebench"
)

// FileSchemaVersion stamps BENCH_wire.json so future readers can
// migrate.
const FileSchemaVersion = 1

// Result is one benchmark's committed shape.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// CalibRatio is NsPerOp divided by the calibration loop's ns/op on
	// the same machine in the same process — the number the gate
	// actually compares.
	CalibRatio float64 `json:"calib_ratio"`
	// SlackFactor scales the gate tolerance for this case (socket round
	// trips are noisier than pure-CPU codec loops).
	SlackFactor float64 `json:"slack_factor"`
}

// File is the committed baseline artifact.
type File struct {
	SchemaVersion int      `json:"schema_version"`
	CalibNsPerOp  float64  `json:"calib_ns_per_op"`
	Results       []Result `json:"results"`
}

func main() {
	var (
		write     = flag.Bool("write", false, "write a fresh baseline instead of checking")
		out       = flag.String("o", "BENCH_wire.json", "baseline path for -write")
		check     = flag.String("check", "", "baseline path to gate against")
		tolerance = flag.Float64("tolerance", 0.20, "allowed fractional calib-ratio slowdown")
	)
	flag.Parse()
	if flag.NArg() != 0 || (*write == (*check != "")) {
		fmt.Fprintln(os.Stderr, "usage: benchguard -write [-o FILE] | benchguard -check FILE [-tolerance F]")
		os.Exit(2)
	}

	cur := measure()
	if *write {
		if err := writeFile(*out, cur); err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(1)
		}
		fmt.Printf("benchguard: wrote %s (calib %.0f ns/op)\n", *out, cur.CalibNsPerOp)
		render(cur)
		return
	}

	base, err := loadFile(*check)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
	fmt.Printf("benchguard: baseline %s (calib %.0f ns/op), current calib %.0f ns/op\n",
		*check, base.CalibNsPerOp, cur.CalibNsPerOp)
	failures := 0
	byName := map[string]Result{}
	for _, r := range base.Results {
		byName[r.Name] = r
	}
	for _, now := range cur.Results {
		was, ok := byName[now.Name]
		if !ok {
			fmt.Printf("  %-26s NEW       ratio %.2f, %d allocs/op (no baseline)\n", now.Name, now.CalibRatio, now.AllocsPerOp)
			continue
		}
		slack := now.SlackFactor
		if slack <= 0 {
			slack = 1
		}
		allowed := *tolerance * slack
		slowdown := now.CalibRatio/was.CalibRatio - 1
		status := "ok"
		if slowdown > allowed {
			status = "REGRESSION"
			failures++
		}
		if now.AllocsPerOp > was.AllocsPerOp {
			status = "ALLOC REGRESSION"
			failures++
		}
		fmt.Printf("  %-26s %-16s ratio %.2f vs %.2f (%+.0f%%, allowed +%.0f%%), allocs %d vs %d\n",
			now.Name, status, now.CalibRatio, was.CalibRatio, slowdown*100, allowed*100, now.AllocsPerOp, was.AllocsPerOp)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d regression(s) beyond %.0f%% tolerance\n", failures, *tolerance*100)
		os.Exit(1)
	}
	fmt.Println("benchguard: pass")
}

// measure runs the calibration loop and every guarded benchmark in this
// process. Each is run three times and the fastest kept — min-of-N is
// the standard de-noising for a gate (transient scheduler interference
// only ever slows a run down).
func measure() File {
	calibNs := minOf3(wirebench.Calibrate, nil)
	f := File{SchemaVersion: FileSchemaVersion, CalibNsPerOp: calibNs}
	for _, c := range wirebench.All() {
		var best testing.BenchmarkResult
		ns := minOf3(c.Fn, &best)
		f.Results = append(f.Results, Result{
			Name:        c.Name,
			NsPerOp:     ns,
			AllocsPerOp: best.AllocsPerOp(),
			BytesPerOp:  best.AllocedBytesPerOp(),
			CalibRatio:  ns / calibNs,
			SlackFactor: c.SlackFactor,
		})
	}
	return f
}

// minOf3 benchmarks fn three times, returns the fastest ns/op, and (if
// out is non-nil) stores that fastest run's full result.
func minOf3(fn func(*testing.B), out *testing.BenchmarkResult) float64 {
	best := 0.0
	for i := 0; i < 3; i++ {
		r := testing.Benchmark(fn)
		ns := float64(r.NsPerOp())
		if best == 0 || ns < best {
			best = ns
			if out != nil {
				*out = r
			}
		}
	}
	return best
}

func render(f File) {
	for _, r := range f.Results {
		fmt.Printf("  %-26s %10.0f ns/op  ratio %.2f  %d allocs/op  %d B/op\n",
			r.Name, r.NsPerOp, r.CalibRatio, r.AllocsPerOp, r.BytesPerOp)
	}
}

func writeFile(path string, f File) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadFile(path string) (File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	if f.SchemaVersion != FileSchemaVersion {
		return File{}, fmt.Errorf("%s: schema %d, want %d", path, f.SchemaVersion, FileSchemaVersion)
	}
	return f, nil
}
