package main

import (
	"math"
	"sort"
)

// minTail is the percentile rule's floor: a percentile is reported only
// when at least this many samples lie beyond it.
const minTail = 10

// quantile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the samples, which need not be sorted. It returns NaN for no samples.
func quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(samples []float64) float64 { return quantile(samples, 50) }

// tailSupported reports whether n samples support the nearest-rank p-th
// percentile under the rule: at least minTail samples strictly beyond
// its rank.
func tailSupported(p float64, n int) bool {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n > 0 && n-rank >= minTail
}

// highestTail returns the highest whole percentile that n samples
// support under the rule, or 0 when even the median is unsupported.
func highestTail(n int) int {
	for p := 99; p >= 50; p-- {
		if tailSupported(float64(p), n) {
			return p
		}
	}
	return 0
}

// ratio is a rate reported with its base, so a reader can tell 1 of 2
// from 500 of 1000.
type ratio struct {
	Num, Base float64
}

// Value is Num/Base, or 0 when the base is empty.
func (r ratio) Value() float64 {
	if r.Base == 0 {
		return 0
	}
	return r.Num / r.Base
}

// hitRate is rc.hit_rate: cache hits over all lookups (hits + misses).
func hitRate(hits, misses int64) ratio {
	return ratio{Num: float64(hits), Base: float64(hits + misses)}
}

// poolUtil is eval.pool_util: the summed busy time of every flow span
// over the pool's capacity, wall time × workers.
func poolUtil(busyMS, wallMS float64, workers int) ratio {
	return ratio{Num: busyMS, Base: wallMS * float64(workers)}
}
