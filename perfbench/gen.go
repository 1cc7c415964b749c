package main

import "math"

// rng is a splitmix64 stream: the benchmark's only source of input
// randomness, so the same seed always yields the same inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// arrivals returns the due offsets, in nanoseconds from the start of
// the paced interval, of a Poisson process at ratePerS over seconds.
func arrivals(seed, stream uint64, ratePerS, seconds float64) []int64 {
	r := newRNG(seed, stream)
	var out []int64
	t := 0.0
	for {
		t += -math.Log(1-r.float()) / ratePerS
		if t >= seconds {
			return out
		}
		out = append(out, int64(t*1e9))
	}
}
