package main

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), so a spread reads the same in both.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 5.5, 2.2, 9.0}, [3]float64{1.7, 3.1, 7.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10.2, 9.8, 10.0, 10.1, 9.9, 10.4, 9.7, 10.3, 10.05, 9.95}, [3]float64{9.875, 10.025, 10.225}},
	} {
		got := quartiles(tc.xs)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestSteadinessFlagsSpreadWiderThanBound(t *testing.T) {
	run := func(wall, heap float64) *result {
		return &result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
			"wall_s":       {Value: wall, Unit: "s"},
			"peak_heap_mb": {Value: heap, Unit: "MB"},
		}}
	}
	results := []*result{run(10, 100), run(12, 100), run(14, 101), run(16, 100)}
	rows, wide := steadiness(results, map[string]float64{"wall_s": 0.1, "peak_heap_mb": 0.1})
	if wide != 1 {
		t.Fatalf("%d metrics flagged, want 1 (wall_s)", wide)
	}
	for _, r := range rows {
		if r.name == "wall_s" && (r.median != 13 || math.Abs(r.spread-5.0/13) > 1e-12) {
			t.Errorf("wall_s median %v spread %v, want 13 and %v", r.median, r.spread, 5.0/13)
		}
	}
}
