package main

import (
	"math"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins the quantile method to Python's
// statistics.quantiles(n=4) (exclusive), which the benchmark driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{3}, 3, 3, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(m-tc.m) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// TestReportCountsWinsByDirection: a lower-is-better metric is won by the
// smaller value, a higher-is-better one by the larger, and ties by no one.
func TestReportCountsWinsByDirection(t *testing.T) {
	var b strings.Builder
	specs := []metricSpec{{Name: "wall_s", Unit: "s", Better: "lower"}, {Name: "rate", Unit: "1/s", Better: "higher"}}
	parent := map[string][]float64{"wall_s": {2, 2, 2, 2}, "rate": {10, 10, 10, 10}}
	change := map[string][]float64{"wall_s": {1, 1, 2, 3}, "rate": {11, 9, 9, 9}}
	report(&b, "w", 7, specs, parent, change)
	out := b.String()
	if !strings.Contains(out, "wins 2/4 ties 1") {
		t.Errorf("wall_s line wrong:\n%s", out)
	}
	if !strings.Contains(out, "wins 1/4 ties 0") {
		t.Errorf("rate line wrong:\n%s", out)
	}
}
