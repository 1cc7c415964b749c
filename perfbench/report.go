package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricDef is a metric's name and unit as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports. Each workload fills
// every one with the quantity its user waits on; see README.md.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run reports. A layer a workload
// does not run reports 0.
var perLayer = []metricDef{
	{"client.writes_per_op", "count"},
	{"client.reads_per_op", "count"},
	{"client.write_us_per_op", "us"},
	{"server.frames_per_write", "count"},
	{"server.reads_per_op", "count"},
	{"server.write_us_per_op", "us"},
	{"server.bytes_per_op", "bytes"},
	{"wire.acquire_self_us_p50", "us"},
	{"wire.acquire_self_us_p99", "us"},
	{"core.acquire_us_p50", "us"},
	{"core.acquire_us_p99", "us"},
	{"core.release_us_p50", "us"},
	{"core.share_of_acquire", "ratio"},
	{"core.handoff_share", "ratio"},
	{"core.immediate_grant_share", "ratio"},
	{"core.grant_wait_us_p99", "us"},
	{"core.sheds", "count"},
	{"core.timeouts", "count"},
	{"proc.cpu_us_per_lease", "us"},
	{"proc.sys_share", "ratio"},
	{"proc.ctx_switches_per_lease", "count"},
	{"go.mallocs_per_lease", "count"},
	{"go.alloc_bytes_per_lease", "bytes"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"harness.critical_job_s", "s"},
	{"harness.worker_idle_share", "ratio"},
	{"workload.generate_ms", "ms"},
	{"machine.new_ms", "ms"},
	{"engine.events", "count"},
	{"engine.ns_per_event", "ns"},
	{"sim.instructions", "count"},
	{"sim.tts.ns_per_event", "ns"},
	{"sim.qolb.ns_per_event", "ns"},
	{"sim.iqolb.ns_per_event", "ns"},
	{"go.mallocs_per_event", "count"},
	{"coherence.bus_tx", "count"},
	{"coherence.ns_per_bus_tx", "ns"},
	{"bench.trace_overhead_share", "ratio"},
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// result accumulates one workload's metrics and correctness checks.
type result struct {
	values    map[string]float64
	attempted int64
	failed    int64
	out       io.Writer
}

func newResult(out io.Writer) *result {
	return &result{values: map[string]float64{}, out: out}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// ops adds operations (or simulation jobs) to the attempted and failed
// totals.
func (r *result) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// check records one correctness check; a failed check counts as one
// failed operation.
func (r *result) check(name string, ok bool, detail string) {
	status, failed := "ok", int64(0)
	if !ok {
		status, failed = "FAILED", 1
	}
	fmt.Fprintf(r.out, "check %-28s %-6s %s\n", name, status, detail)
	r.ops(1, failed)
}

func (r *result) failedShare() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

func (r *result) correct() bool { return r.failed == 0 }

// line prints one named metric of the report with its unit and how it
// was sampled.
func (r *result) line(name string, v float64, unit, note string) {
	fmt.Fprintf(r.out, "  %-28s %14s %-6s %s\n", name, fmtValue(v), unit, note)
}

func fmtValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case math.IsInf(v, 0):
		return "inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value *float64 `json:"value"` // null when not finite
	Unit  string   `json:"unit"`
}

// summary builds the final JSON object over defs; a metric the run did
// not produce is an error in the benchmark itself.
func (r *result) summary(defs []metricDef) (summary, error) {
	s := summary{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		mv := metricValue{Unit: d.unit}
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			mv.Value = &v
		}
		s.Metrics[d.name] = mv
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return s, fmt.Errorf("metrics not produced: %v", missing)
	}
	return s, nil
}

func writeSummary(w io.Writer, s summary) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
