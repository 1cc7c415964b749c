package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"iqolb/internal/service"
	"iqolb/internal/stats"
)

// setUps is how many times a serving run boots and warms a server; the
// median is setup_s and the last one is measured.
const setUps = 7

// spanCapacity bounds the traced half's span store (16 bytes a span).
const spanCapacity = 1 << 21

// runServing runs one serving workload. Untraced, the whole interval is
// measured. Traced, the first half is measured untraced (process and
// runtime counters, the overhead baseline) and the second half on a
// fresh server with every boundary wrapped.
func runServing(name string, sh shape, seed uint64, d time.Duration, traced bool, spanDir string, res *result) error {
	cal0 := calibNS()
	var setupS []float64
	var r *rig
	for i := 0; i < setUps; i++ {
		ri, dt, err := setUp(sh, seed, nil)
		if err != nil {
			return err
		}
		setupS = append(setupS, dt.Seconds())
		if i == setUps-1 {
			r = ri
		} else if err := ri.close(); err != nil {
			return err
		}
	}
	if traced {
		d /= 2
	}
	before := sampleProc()
	ph, err := r.run(sh, seed, d)
	proc := sampleProc().since(before)
	if err != nil {
		r.close()
		return err
	}
	checkServing(res, "", r, ph)
	if err := r.close(); err != nil {
		return err
	}
	cal := (cal0 + calibNS()) / 2
	slow := cal / refCalibNS

	leasesPerS, p50, p90, p99 := ph.leasesPerS(), ph.latPct(50), ph.latPct(90), ph.latPct(99)
	res.check("p99 has 10 samples beyond", supported(99, ph.minSliceCount()),
		fmt.Sprintf("fewest samples in a slice: %d", ph.minSliceCount()))
	n := ph.lat.count()
	perSlice := fmt.Sprintf("median of %d slices of %.1f s", len(ph.slices), ph.sliceLen.Seconds())
	fmt.Fprintf(res.out, "metrics (untraced, %.2f s measured):\n", ph.elapsed.Seconds())
	res.line("leases_per_s", leasesPerS, "1/s", fmt.Sprintf("%s; n=%d leases, %.0f/s over the whole interval",
		perSlice, ph.leases, float64(ph.leases)/ph.elapsed.Seconds()))
	res.line("acquire_p50_us", p50, "us", fmt.Sprintf("%s; n=%d acquires", perSlice, n))
	res.line("acquire_p90_us", p90, "us", perSlice)
	res.line("acquire_p99_us", p99, "us", fmt.Sprintf("%s; n=%d; whole interval: p99 %s us, highest percentile with >=10 beyond p%v = %s us",
		perSlice, n, fmtValue(ph.lat.pct(99)), highestSupported(n), fmtValue(ph.lat.pct(highestSupported(n)))))
	res.line("failed_share", res.failedShare(), "ratio", fmt.Sprintf("%d of %d ops and checks so far", res.failed, res.attempted))
	res.line("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups (boot, %d dials, %d warm-up leases)", setUps, sh.conns, warmOps*sh.workers()))
	res.line("sim_wall_s", math.NaN(), "s", "serving workloads run no simulator code")
	res.line("sim_cycles_per_s", math.NaN(), "1/s", "serving workloads run no simulator code")
	if sh.rate > 0 {
		res.line("bench.lag_p99_us", ph.lag.pct(99), "us", fmt.Sprintf("whole interval, n=%d sends; how late the generator ran", ph.lag.count()))
	}
	fmt.Fprintf(res.out, "gated: scaled to a host whose calibration reads %.0f ns/op (here %.1f, mean of before and after)\n", refCalibNS, cal)
	res.line("throughput_per_s", leasesPerS*slow, "1/s", "leases_per_s")
	res.line("latency_p50_us", p50/slow, "us", "acquire_p50_us")
	res.line("setup_s", median(setupS)/slow, "s", "setup_s")
	res.set("throughput_per_s", leasesPerS*slow)
	res.set("latency_p50_us", p50/slow)
	res.set("setup_s", median(setupS)/slow)
	if !traced {
		return nil
	}

	for _, m := range perLayer {
		res.set(m.name, 0)
	}
	res.set("proc.sys_share", proc.sysShare())
	res.set("proc.ctx_switches_per_lease", float64(proc.ctxSwitch)/float64(ph.leases))
	res.set("go.mallocs_per_lease", float64(proc.mallocs)/float64(ph.leases))
	res.set("go.alloc_bytes_per_lease", float64(proc.allocBytes)/float64(ph.leases))
	res.set("go.gc_cycles", float64(proc.gcCycles))
	res.set("go.gc_pause_ms", float64(proc.gcPauseNS)/1e6)

	tr := newTracer(spanCapacity)
	rt, _, err := setUp(sh, seed, tr)
	if err != nil {
		return err
	}
	first := tr.n.Load()
	cli0, srv0, snap0 := tr.client.snapshot(), tr.server.snapshot(), rt.svc.Snapshot()
	tbefore := sampleProc()
	tph, err := rt.run(sh, seed, d)
	tproc := sampleProc().since(tbefore)
	if err != nil {
		rt.close()
		return err
	}
	cli, srv, snap := tr.client.snapshot().sub(cli0), tr.server.snapshot().sub(srv0), rt.svc.Snapshot()
	checkServing(res, "traced ", rt, tph)
	if err := rt.close(); err != nil {
		return err
	}
	spans, dropped := tr.recorded()
	if first < int64(len(spans)) {
		spans = spans[first:]
	} else {
		spans = nil
	}
	overhead := cpuPerLease(tproc, tph)/cpuPerLease(proc, ph) - 1
	res.set("proc.cpu_us_per_lease", cpuPerLease(proc, ph))
	res.set("bench.trace_overhead_share", overhead)
	if err := layerServing(res, ph, tph, spans, dropped, cli, srv, snap0, snap, overhead); err != nil {
		return err
	}
	return tr.writeSpans(filepath.Join(spanDir, name+".tsv"))
}

// cpuPerLease is the process CPU time per completed lease, in µs.
func cpuPerLease(d procSample, ph phase) float64 {
	return float64(d.cpu().Nanoseconds()) / 1e3 / float64(ph.leases)
}

// checkServing runs the serving correctness checks on a rig's finished
// phase.
func checkServing(res *result, prefix string, r *rig, ph phase) {
	res.ops(ph.attempted, ph.failedAcq+ph.failedRel)
	detail, ok := conservation(r.svc)
	res.check(prefix+"lease conservation", ok, detail)
	res.check(prefix+"acquires granted", ph.failedAcq == 0, fmt.Sprintf("%d of %d refused or timed out", ph.failedAcq, ph.attempted))
	res.check(prefix+"ReleaseFenced accepted", ph.failedRel == 0, fmt.Sprintf("%d of %d rejected", ph.failedRel, ph.attempted-ph.failedAcq))
	b := r.guard.breaches.Load()
	res.check(prefix+"mutual exclusion guard", b == 0, fmt.Sprintf("%d breaches (grant while the resource was held)", b))
}

// layerServing derives the per-layer metrics of a serving workload from
// the traced half's spans and counters, and prints the attribution of
// acquire latency.
func layerServing(res *result, ph, tph phase, spans []span, dropped int64,
	cli, srv ioSnapshot, snap0, snap *service.Snapshot, overhead float64) error {
	wireOps := float64(tph.attempted + tph.attempted - tph.failedAcq)
	res.set("client.writes_per_op", float64(cli.writes)/wireOps)
	res.set("client.reads_per_op", float64(cli.reads)/wireOps)
	res.set("client.write_us_per_op", float64(cli.writeNS)/1e3/wireOps)
	res.set("server.frames_per_write", wireOps/float64(srv.writes))
	res.set("server.reads_per_op", float64(srv.reads)/wireOps)
	res.set("server.write_us_per_op", float64(srv.writeNS)/1e3/wireOps)
	res.set("server.bytes_per_op", float64(srv.readBytes+srv.writeBytes)/wireOps)

	// Pair each lease's client acquire span with its core child span.
	var maxID uint32
	for _, s := range spans {
		if id := s.tag >> 4; id > maxID {
			maxID = id
		}
	}
	clientAcq := make([]int64, maxID+1)
	coreAcq := make([]int64, maxID+1)
	coreAcqS, coreRelS := newHist(), newHist()
	for _, s := range spans {
		id, d := s.tag>>4, int64(s.dur)+1 // +1: a recorded span is never 0
		switch spanName(s.tag & 0xf) {
		case spClientAcquire:
			clientAcq[id] = d
		case spCoreAcquire:
			coreAcq[id] = d
			coreAcqS.add(d - 1)
		case spCoreRelease:
			coreRelS.add(d - 1)
		}
	}
	selfS, clientS := newHist(), newHist()
	var sumCore, sumClient float64
	for id := range clientAcq {
		if clientAcq[id] == 0 || coreAcq[id] == 0 {
			continue
		}
		selfS.add(clientAcq[id] - coreAcq[id])
		clientS.add(clientAcq[id] - 1)
		sumCore += float64(coreAcq[id] - 1)
		sumClient += float64(clientAcq[id] - 1)
	}
	res.set("wire.acquire_self_us_p50", selfS.pct(50))
	res.set("wire.acquire_self_us_p99", selfS.pct(99))
	res.set("core.acquire_us_p50", coreAcqS.pct(50))
	res.set("core.acquire_us_p99", coreAcqS.pct(99))
	res.set("core.release_us_p50", coreRelS.pct(50))
	res.set("core.share_of_acquire", sumCore/sumClient)

	t0, t := snap0.Totals, snap.Totals
	grants := float64(t.Grants - t0.Grants)
	res.set("core.handoff_share", float64(t.Handoffs-t0.Handoffs)/grants)
	res.set("core.immediate_grant_share", float64(t.ImmediateGrants-t0.ImmediateGrants)/grants)
	gw, err := histSince(&snap0.GrantWaitNS, &snap.GrantWaitNS)
	if err != nil {
		return err
	}
	res.set("core.grant_wait_us_p99", gw.Percentile(99)/1e3)
	res.set("core.sheds", float64(t.Sheds()-t0.Sheds()))
	res.set("core.timeouts", float64(t.Timeouts-t0.Timeouts))

	fmt.Fprintf(res.out, "attribution of acquire latency (traced half, %d leases paired, %d spans dropped):\n", selfS.count(), dropped)
	fmt.Fprintf(res.out, "  %-44s %10s %10s\n", "", "p50 us", "mean us")
	fmt.Fprintf(res.out, "  %-44s %10s %10s\n", "client acquire span", fmtValue(clientS.pct(50)), fmtValue(clientS.meanUS()))
	fmt.Fprintf(res.out, "  %-44s %10s %10s\n", "  core time (Backend span)", fmtValue(coreAcqS.pct(50)), fmtValue(coreAcqS.meanUS()))
	fmt.Fprintf(res.out, "  %-44s %10s %10s\n", "  wire self time (client span - core span)", fmtValue(selfS.pct(50)), fmtValue(selfS.meanUS()))
	fmt.Fprintf(res.out, "  %-44s %10s %10s\n", "    client self time (socket writes per op)", "", fmtValue(float64(cli.writeNS)/1e3/wireOps))
	fmt.Fprintf(res.out, "  %-44s %10s\n", "untraced acquire_p50_us", fmtValue(ph.latPct(50)))
	fmt.Fprintf(res.out, "  %-44s %10s\n", "bench.trace_overhead_share (CPU per lease)", fmtValue(overhead))
	return nil
}

// histSince is the samples added to a cumulative histogram between two
// snapshots of it: later minus earlier, bucket by bucket. The delta's
// extremes are not known exactly, so its percentiles interpolate over
// whole power-of-two buckets, capped at the later maximum.
func histSince(earlier, later *stats.Histogram) (stats.Histogram, error) {
	type buckets struct {
		Count   uint64         `json:"count"`
		Sum     uint64         `json:"sum"`
		Max     uint64         `json:"max"`
		Buckets map[int]uint64 `json:"buckets"`
	}
	var a, b buckets
	for _, x := range []struct {
		h   *stats.Histogram
		dst *buckets
	}{{earlier, &a}, {later, &b}} {
		j, err := json.Marshal(x.h)
		if err != nil {
			return stats.Histogram{}, err
		}
		if err := json.Unmarshal(j, x.dst); err != nil {
			return stats.Histogram{}, err
		}
	}
	d := buckets{Count: b.Count - a.Count, Sum: b.Sum - a.Sum, Max: b.Max, Buckets: map[int]uint64{}}
	for k, n := range b.Buckets {
		if n > a.Buckets[k] {
			d.Buckets[k] = n - a.Buckets[k]
		}
	}
	j, err := json.Marshal(d)
	if err != nil {
		return stats.Histogram{}, err
	}
	var h stats.Histogram
	return h, json.Unmarshal(j, &h)
}
