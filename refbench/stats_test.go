package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{5000, 990},
		{1000, 990}, // exactly ten samples above p99
		{999, 900},  // nine above p99, 99 above p90
		{100, 900},  // exactly ten above p90
		{99, 0},     // nine above p90: no tail is reportable
		{0, 0},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, tailLadder); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}

}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-9 {
		t.Errorf("p90 = %g, want 4.6", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestMixMedian(t *testing.T) {
	fast := []float64{1.0, 1.1, 1.2, 5.0} // one slow outlier
	slow := []float64{0.1, 3.0, 3.1, 3.2} // one fast outlier
	balanced := []mixClass{{"a", 1, fast}, {"b", 1, slow}}
	// Half-way falls between the classes: the midpoint of their medians,
	// not a value set by the outliers as the pooled median would be.
	if got, want := mixMedian(balanced), (1.15+3.05)/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("balanced mix median = %g, want %g", got, want)
	}
	skewed := []mixClass{{"lookup", 27, fast}, {"q5", 1, slow}, {"q13", 1, slow}, {"q20", 1, slow}}
	if got := mixMedian(skewed); math.Abs(got-1.15) > 1e-9 {
		t.Errorf("skewed mix median = %g, want the dominant class's 1.15", got)
	}
	withEmpty := []mixClass{{"a", 1, fast}, {"b", 1, nil}, {"c", 2, slow}}
	if got := mixMedian(withEmpty); math.Abs(got-3.05) > 1e-9 {
		t.Errorf("mix median without the empty class = %g, want 3.05", got)
	}
	if !math.IsNaN(mixMedian(nil)) {
		t.Error("mix median of no classes should be NaN")
	}
}
