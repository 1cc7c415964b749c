package main

import (
	"math"
	"math/bits"
	"sort"
)

// subBits sets the histogram's resolution: each power-of-two range of
// nanoseconds is split into 2^subBits buckets, so a reported value is
// within 0.8% of the samples it stands for.
const subBits = 7

// maxShift caps the tracked range at about 2^34 ns (17 s); longer
// samples count in the last bucket.
const maxShift = 26

const numBuckets = (maxShift + 2) << subBits

// hist counts per-operation latencies in nanoseconds in log-linear
// buckets: a fixed 14 KiB whatever the run length, so the benchmark's
// own bookkeeping does not grow the peak memory it reports. A failed
// operation is counted apart and sorts above every real sample.
type hist struct {
	counts []uint32
	n      int64 // real samples
	failed int64
	sumNS  float64
}

func newHist() *hist { return &hist{counts: make([]uint32, numBuckets)} }

func bucket(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	shift := bits.Len64(v) - (subBits + 1)
	if shift <= 0 {
		return int(v)
	}
	if shift > maxShift {
		return numBuckets - 1
	}
	return shift<<subBits + int(v>>uint(shift))
}

// bucketRange is the lowest value and the width of bucket i in
// nanoseconds.
func bucketRange(i int) (lo, width float64) {
	shift := i>>subBits - 1
	if shift <= 0 {
		return float64(i), 1
	}
	return float64(uint64(i-shift<<subBits) << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) add(ns int64) {
	h.counts[bucket(ns)]++
	h.n++
	h.sumNS += float64(ns)
}

// fail records an operation that failed, was refused or timed out: it
// misses every latency limit.
func (h *hist) fail() { h.failed++ }

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.failed += o.failed
	h.sumNS += o.sumNS
}

// count is the number of operations recorded, failed ones included.
func (h *hist) count() int { return int(h.n + h.failed) }

// rank is the nearest-rank index of percentile p in n sorted samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n)-1e-9)) - 1 // -1e-9: 99.9/100*10000 is not exact
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// supported reports whether percentile p of n samples has at least ten
// samples beyond it, the rule for reporting a percentile at all.
func supported(p float64, n int) bool {
	return n > 0 && n-1-rank(p, n) >= 10
}

// pct returns percentile p in microseconds, interpolated by rank within
// its bucket; +Inf when it lands on a failed operation, NaN when p is
// not supported.
func (h *hist) pct(p float64) float64 {
	n := h.count()
	if !supported(p, n) {
		return math.NaN()
	}
	k := int64(rank(p, n))
	if k >= h.n {
		return math.Inf(1)
	}
	var seen int64
	for i, c := range h.counts {
		if seen+int64(c) > k {
			lo, width := bucketRange(i)
			return (lo + width*(float64(k-seen)+0.5)/float64(c)) / 1e3
		}
		seen += int64(c)
	}
	return math.NaN() // unreachable: counts sum to n
}

// meanUS is the mean in microseconds (+Inf if any operation failed).
func (h *hist) meanUS() float64 {
	switch {
	case h.failed > 0:
		return math.Inf(1)
	case h.n == 0:
		return math.NaN()
	}
	return h.sumNS / float64(h.n) / 1e3
}

// pctLadder is the percentile ladder searched for the highest one with
// ten samples beyond it.
var pctLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999, 99.9999}

// highestSupported returns the highest ladder percentile that has ten
// samples beyond it, or 0 when even the median has fewer.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range pctLadder {
		if supported(p, n) {
			best = p
		}
	}
	return best
}

// median of a float slice (the slice is sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
