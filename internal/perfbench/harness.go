// Package perfbench is the benchmark harness behind the `uselessmiss
// bench` subcommand and the `make bench-gate` CI perf gate.
//
// It runs each representative workload of the replay engine (the three
// classifiers, the seven invalidation schedules, the finite cache, the
// trace store, workload generation and an end-to-end figure sweep),
// measures its throughput and steady-state allocations per pass, and
// emits a schema-versioned machine-readable report. A committed baseline
// report plus Compare turn every number in results/*.txt into a defended
// floor: CI fails with a readable regression table when a change slows a
// workload beyond tolerance or reintroduces allocations on a pinned path.
//
// The harness does not attribute time to layers. The end-to-end benchmark
// does that from span self time (e2ebench --trace 1), and the experiment
// subcommands' -cpuprofile writes a profile for a human to read.
package perfbench

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// Options tunes one harness run. The zero value gets sensible defaults
// (see normalize): the default full run takes a few seconds per workload
// set; tests drop the times to milliseconds.
type Options struct {
	// MinTime is the wall-clock floor for one timing window.
	MinTime time.Duration
	// Repeats is how many timing windows to run; the report keeps the
	// fastest window's throughput. Best-of-N is the noise defense on
	// shared hardware: CPU steal only ever slows a window down, so the
	// fastest window tracks the machine's real capability and stays
	// comparable run to run.
	Repeats int
	// AllocPasses is how many passes the allocs/pass figure averages over.
	AllocPasses int
	// Workloads filters the registry by name; empty means all.
	Workloads []string
	// Logf, when set, receives one progress line per workload.
	Logf func(format string, args ...any)
}

func (o Options) normalize() Options {
	if o.MinTime <= 0 {
		o.MinTime = 300 * time.Millisecond
	}
	if o.Repeats <= 0 {
		o.Repeats = 5
	}
	if o.AllocPasses <= 0 {
		o.AllocPasses = 3
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Run measures every selected workload and returns the assembled report.
func Run(o Options) (*Report, error) {
	o = o.normalize()
	workloads, err := Find(o.Workloads)
	if err != nil {
		return nil, err
	}
	rep := newReport(time.Now())
	for _, w := range workloads {
		res, err := Measure(w, o)
		if err != nil {
			return nil, fmt.Errorf("perfbench: %s: %w", w.Name, err)
		}
		o.Logf("%-22s %12.0f refs/s  %8.2f ns/ref  %6.1f allocs/pass",
			res.Name, res.RefsPerSec, res.NsPerRef, res.AllocsPerPass)
		rep.Workloads = append(rep.Workloads, res)
	}
	rep.sortWorkloads()
	return rep, nil
}

// Measure runs one workload through the two measurement stages:
//
//  1. allocs/pass at GOMAXPROCS(1);
//  2. timed windows for refs/s and ns/ref, keeping the fastest of
//     Options.Repeats windows.
func Measure(w Workload, o Options) (WorkloadResult, error) {
	o = o.normalize()
	pass, err := w.Setup()
	if err != nil {
		return WorkloadResult{}, err
	}
	refs, err := pass() // warmup, and establishes refs/pass
	if err != nil {
		return WorkloadResult{}, err
	}
	res := WorkloadResult{Name: w.Name, Pinned: w.Pinned, RefsPerPass: refs}

	if res.AllocsPerPass, err = measureAllocs(pass, o.AllocPasses); err != nil {
		return res, err
	}

	for i := 0; i < o.Repeats; i++ {
		passes, elapsed, err := timedPasses(pass, o.MinTime)
		if err != nil {
			return res, err
		}
		res.Passes += passes
		totalRefs := float64(refs) * float64(passes)
		if sec := elapsed.Seconds(); sec > 0 && totalRefs > 0 {
			if rps := totalRefs / sec; rps > res.RefsPerSec {
				res.RefsPerSec = rps
				res.NsPerRef = float64(elapsed.Nanoseconds()) / totalRefs
			}
		}
	}
	return res, nil
}

// measureAllocs returns heap allocations per pass, serialized to one
// scheduler thread the way testing.AllocsPerRun does so concurrent
// background allocations do not leak into the figure. Allocations by
// runtime goroutines (timers, finalizers, a logger flush) still land in
// the process-wide malloc counter at random, so the figure is the minimum
// over several measurement windows after a warmup pass: a pass's own
// allocations appear in every window, background noise does not — and the
// pinned-path gate must not flake on noise.
func measureAllocs(pass func() (uint64, error), passes int) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := pass(); err != nil { // warmup, as testing.AllocsPerRun does
		return 0, err
	}
	const trials = 3
	best := math.Inf(1)
	var before, after runtime.MemStats
	for t := 0; t < trials; t++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < passes; i++ {
			if _, err := pass(); err != nil {
				return 0, err
			}
		}
		runtime.ReadMemStats(&after)
		if got := float64(after.Mallocs-before.Mallocs) / float64(passes); got < best {
			best = got
		}
	}
	return best, nil
}

// timedPasses repeats pass until minTime has elapsed and returns the pass
// count and total duration.
func timedPasses(pass func() (uint64, error), minTime time.Duration) (int, time.Duration, error) {
	start := time.Now()
	passes := 0
	for {
		if _, err := pass(); err != nil {
			return passes, time.Since(start), err
		}
		passes++
		if time.Since(start) >= minTime {
			return passes, time.Since(start), nil
		}
	}
}
