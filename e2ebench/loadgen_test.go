package main

import (
	"math"
	"reflect"
	"testing"
)

func TestScheduleIsAPureFunctionOfSeedAndRate(t *testing.T) {
	a := schedule(7, lowRate, openJobs)
	if b := schedule(7, lowRate, openJobs); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if b := schedule(8, lowRate, openJobs); reflect.DeepEqual(a, b) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	if b := schedule(7, highRate, openJobs); reflect.DeepEqual(a, b) {
		t.Fatal("the low and high rates share one schedule")
	}
	if len(a) != openJobs {
		t.Fatalf("got %d arrivals, want %d", len(a), openJobs)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
}

func TestScheduleMatchesRateAndMix(t *testing.T) {
	const n = 20000
	arr := schedule(3, highRate, n)
	if got := float64(n) / arr[n-1].due.Seconds(); math.Abs(got-highRate)/highRate > 0.03 {
		t.Errorf("offered %.2f jobs/s, want about %.0f", got, highRate)
	}
	var counts [numKinds]int
	for _, a := range arr {
		counts[a.kind]++
	}
	for k, w := range jobMix {
		if got := float64(counts[k]) / n; math.Abs(got-w) > 0.015 {
			t.Errorf("%s share %.3f, want about %.2f", jobKindNames[k], got, w)
		}
	}
}

func TestClosedLoopJobsKeepTheMixExactly(t *testing.T) {
	a := closedLoopJobs(5, 0, roundJobs)
	if !reflect.DeepEqual(a, closedLoopJobs(5, 0, roundJobs)) {
		t.Fatal("the same seed gave two different job lists")
	}
	if reflect.DeepEqual(a, closedLoopJobs(6, 0, roundJobs)) {
		t.Fatal("seeds 5 and 6 gave the same job order")
	}
	if reflect.DeepEqual(a, closedLoopJobs(5, 1, roundJobs)) {
		t.Fatal("rounds 0 and 1 gave the same job order")
	}
	var counts [numKinds]int
	for _, k := range a {
		counts[k]++
	}
	for k, w := range jobMix {
		if want := int(math.Round(w * roundJobs)); counts[k] != want {
			t.Errorf("%s: %d jobs, want %d", jobKindNames[k], counts[k], want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{200, 0.95, 190, true},  // 10 samples beyond
		{199, 0.95, 190, false}, // 9 beyond
		{210, 0.95, 200, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(sorted(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%.2f) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(sorted(openJobs), 0.95); !ok {
		t.Errorf("an open-loop phase of %d jobs cannot report its p95", openJobs)
	}
}
