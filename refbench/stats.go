package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLadder lists the tail percentiles a workload may report, in
// per-mille, highest first.
var tailLadder = []int{990, 900}

// tailPercentile returns the highest percentile of ladder (per-mille,
// descending) that leaves at least minBeyond of n samples above it, or
// 0 when none does.
func tailPercentile(n int, ladder []int) int {
	for _, pm := range ladder {
		if n*(1000-pm)/1000 >= minBeyond {
			return pm
		}
	}
	return 0
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// mixClass is one query class of a workload's mix: its share of the
// mix by design (an integer weight) and its latency samples.
type mixClass struct {
	name    string
	weight  int
	samples []float64
}

// mixMedian is the median of a query mix: each class's median latency,
// weighted by the class's designed share. When the half-way point falls
// exactly between two classes — the balanced ten-query round robin — it
// is the midpoint of their medians. The pooled-sample median is
// ill-conditioned there: it would be set by the slowest samples of one
// class and the fastest of the next. Classes without samples are left
// out.
func mixMedian(classes []mixClass) float64 {
	type cm struct {
		med    float64
		weight int
	}
	var cms []cm
	total := 0
	for _, c := range classes {
		if len(c.samples) == 0 || c.weight <= 0 {
			continue
		}
		cms = append(cms, cm{median(c.samples), c.weight})
		total += c.weight
	}
	if total == 0 {
		return math.NaN()
	}
	sort.Slice(cms, func(i, j int) bool { return cms[i].med < cms[j].med })
	cum := 0
	for i, c := range cms {
		cum += c.weight
		switch {
		case 2*cum == total && i+1 < len(cms):
			return (c.med + cms[i+1].med) / 2
		case 2*cum >= total:
			return c.med
		}
	}
	return cms[len(cms)-1].med
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
