package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"iqolb/internal/service"
)

func TestSameSeedSameInputs(t *testing.T) {
	draws := func(seed uint64) []int {
		r := newRNG(seed, 3)
		out := make([]int, 64)
		for i := range out {
			out[i] = r.intn(2)
		}
		return out
	}
	if !reflect.DeepEqual(draws(7), draws(7)) {
		t.Fatal("resource draws differ for the same seed")
	}
	if reflect.DeepEqual(draws(7), draws(8)) {
		t.Fatal("resource draws identical for different seeds")
	}
	a, b := arrivals(7, 0, 1000, 1), arrivals(7, 0, 1000, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("arrival offsets differ for the same seed")
	}
	if reflect.DeepEqual(a, arrivals(8, 0, 1000, 1)) {
		t.Fatal("arrival offsets identical for different seeds")
	}
	if len(a) < 900 || len(a) > 1100 {
		t.Fatalf("%d arrivals in 1 s at 1000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 1e9 {
			t.Fatalf("offset %d out of order or range: %d", i, a[i])
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{
		{99, 999, false}, {99, 1000, true}, {50, 19, false}, {50, 20, true}, {99.9, 10000, true}, {99.9, 9999, false},
	} {
		if got := supported(c.p, c.n); got != c.want {
			t.Errorf("supported(p%v, n=%d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
	if got := highestSupported(1000); got != 99 {
		t.Errorf("highestSupported(1000) = %v, want 99", got)
	}
	h := newHist()
	for i := 0; i < 999; i++ {
		h.add(int64(i))
	}
	if v := h.pct(99); !math.IsNaN(v) {
		t.Errorf("p99 of 999 samples = %v, want NaN", v)
	}
	h.add(999)
	if v := h.pct(99); v != 0.9895 {
		t.Errorf("p99 of 0..999 ns = %v us, want 0.9895", v)
	}
}

func TestHistogramResolution(t *testing.T) {
	for _, ns := range []int64{0, 1, 511, 512, 1000, 123456, 98765432, 5e9} {
		h := newHist()
		for i := 0; i < 20; i++ {
			h.add(ns)
		}
		got := h.pct(50) * 1e3
		if math.Abs(got-float64(ns)) > float64(ns)/128+1 {
			t.Errorf("p50 of %d ns reads %v ns", ns, got)
		}
	}
}

func TestFailedAcquireMissesEveryLatency(t *testing.T) {
	h := newHist()
	for i := 0; i < 100; i++ {
		h.add(int64(i+1) * 100)
	}
	h.fail()
	if v := h.pct(50); math.Abs(v-5.1) > 0.05 {
		t.Errorf("p50 = %v us, want 5.1", v)
	}
	if v := h.meanUS(); !math.IsInf(v, 1) {
		t.Errorf("mean with a failed op = %v, want +Inf", v)
	}
	for i := 0; i < 20; i++ {
		h.fail()
	}
	if v := h.pct(90); !math.IsInf(v, 1) {
		t.Errorf("p90 with 21 of 121 failed = %v, want +Inf", v)
	}

	// A refused acquire on a live server counts as failed.
	sh, _ := shapeFor("wire-sat", 1)
	r, err := boot(sh, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Drain(0); err != nil {
		t.Fatal(err)
	}
	out := newWorkerOut(1, time.Hour, false)
	r.lease(0, r.clients[0], "res", time.Now(), -1, &out, owner(0, 0))
	if err := r.close(); err != nil {
		t.Fatal(err)
	}
	if out.failedAcq != 1 || out.slices[0].leases != 0 || out.slices[0].lat.failed != 1 || out.slices[0].lat.n != 0 {
		t.Fatalf("refused acquire recorded as %+v", out)
	}
	res := newResult(&bytes.Buffer{})
	checkServing(res, "", r, collect([]workerOut{out}, time.Hour, time.Second))
	if res.correct() || res.failedShare() == 0 {
		t.Fatalf("refused acquire not counted: failed %d of %d", res.failed, res.attempted)
	}
}

// grantAll is a broken Backend: it grants every acquire at once, held
// or not.
type grantAll struct{ tokens uint64 }

func (g *grantAll) Acquire(res, owner string, _ service.AcquireOptions) (service.Lease, error) {
	g.tokens++
	return service.Lease{Resource: res, Owner: owner, Token: g.tokens, Fence: g.tokens}, nil
}
func (g *grantAll) ReleaseFenced(string, uint64, uint64) error           { return nil }
func (g *grantAll) Resume(string, uint64, uint64) (service.Lease, error) { return service.Lease{}, nil }
func (g *grantAll) Drain(time.Duration) error                            { return nil }
func (g *grantAll) Close() error                                         { return nil }

func TestGuardReportsDoubleGrant(t *testing.T) {
	g := newGuardedBackend(&grantAll{}, []string{"hot-0"})
	acquire := func(owner string, breaches int64) service.Lease {
		t.Helper()
		l, err := g.Acquire("hot-0", owner, acquireOpts)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.breaches.Load(); got != breaches {
			t.Fatalf("after %s's grant: %d breaches, want %d", owner, got, breaches)
		}
		return l
	}
	a := acquire("a", 0)
	b := acquire("b", 1) // granted while a holds it
	if err := g.ReleaseFenced("hot-0", b.Token, b.Fence); err != nil {
		t.Fatal(err)
	}
	acquire("c", 2) // b's release must not have cleared a's hold
	if err := g.ReleaseFenced("hot-0", a.Token, a.Fence); err != nil {
		t.Fatal(err)
	}
	acquire("d", 2)

	// A breach fails the run's checks.
	sh, _ := shapeFor("hot-handoff", 1)
	r, err := boot(sh, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	r.guard.breaches.Add(1)
	res := newResult(&bytes.Buffer{})
	checkServing(res, "", r, collect(nil, time.Hour, time.Second))
	if res.correct() {
		t.Fatal("an exclusion breach passed the checks")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(m.name) || len(m.name) > 64 {
			t.Errorf("bad metric name %q", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(file []struct{ Name, Unit string }, code []metricDef) bool {
		if len(file) != len(code) {
			return false
		}
		for i := range file {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				return false
			}
		}
		return true
	}
	if !same(bj.EndToEnd, endToEnd) || !same(bj.PerLayer, perLayer) {
		t.Error("BENCHMARK.json metric lists differ from the code's")
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloads)
	}
}

func TestShortServingRun(t *testing.T) {
	var out bytes.Buffer
	res := newResult(&out)
	sh, _ := shapeFor("hot-handoff", 2)
	if err := runServing("hot-handoff", sh, 1, 4*time.Second, true, t.TempDir(), res); err != nil {
		t.Fatal(err)
	}
	res.set("peak_rss_mb", peakRSSMiB())
	if !res.correct() {
		t.Fatalf("checks failed:\n%s", out.String())
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if _, err := res.summary(defs); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(out.String(), "n=") {
		t.Errorf("report carries no sample counts:\n%s", out.String())
	}
	if res.values["core.handoff_share"] <= 0 {
		t.Errorf("hot-handoff traced run saw no hand-offs")
	}
}
