package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9)) // 99.9% of 1000 is rank 999
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailPercentile is the highest of the reported percentiles (p50, p90,
// p99, p99.9) that has at least ten samples beyond it among n samples; 0
// when even the median has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quartiles returns the three cut points of xs by the exclusive method of
// Python's statistics.quantiles(xs, n=4), the method the benchmark's
// acceptance rule is stated in; it extrapolates below four samples as
// Python does. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// geomean returns the geometric mean of the positive values of xs; values
// at or below zero cannot enter a geometric mean and are skipped.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// keyedMedians groups xs by the key at the same index and returns each
// group's median, in the order the keys first appear. A workload that
// repeats the same operations reports the median and geometric mean of
// these: one slow repetition of one operation then moves nothing.
func keyedMedians(keys []string, xs []float64) []float64 {
	groups := map[string][]float64{}
	var order []string
	for i, k := range keys {
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], xs[i])
	}
	out := make([]float64, len(order))
	for i, k := range order {
		out[i] = median(groups[k])
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
