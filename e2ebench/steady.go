package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the benchmark's definition at the repository root.
const benchmarkFile = "BENCHMARK.json"

// benchmarkDef is the part of BENCHMARK.json the benchmark reads.
type benchmarkDef struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkDef(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchmarkDef
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// cmdSteady is the steadiness report: it runs one workload with N
// consecutive seeds, then prints each metric's median, quartiles and
// spread, (Q3 - Q1) / median, against the metric's bound, flagging any
// spread wider than its bound.
func cmdSteady(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs")
	firstSeed := fs.Int64("first-seed", 1, "seed of the first run; each later run takes the next seed")
	seconds := fs.Int("seconds", 0, "measuring time per run (0 = run_seconds from "+benchmarkFile+")")
	traced := fs.Int("trace", 0, "0 or 1, passed to every run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	def, err := readBenchmarkDef(benchmarkFile)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = def.RunSeconds
	}
	if *runs < 2 {
		return errors.New("need at least two runs")
	}
	results, err := runSeeds(*name, *runs, *firstSeed, *seconds, *traced, stderr)
	if err != nil {
		return err
	}
	bounds := make(map[string]float64)
	for _, m := range def.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	rows, wide := steadiness(results, bounds)
	fmt.Fprintf(stdout, "%d runs; spread = (Q3 - Q1) / median, quartiles as Python's statistics.quantiles(n=4)\n", len(results))
	fmt.Fprintf(stdout, "%-34s %12s %12s %12s %8s %7s %10s\n", "metric", "median", "Q1", "Q3", "spread", "bound", "spread/bd")
	for _, r := range rows {
		bound, ratio, flag := "-", "-", ""
		if r.bound > 0 {
			bound = fmt.Sprintf("%.3f", r.bound)
			ratio = fmt.Sprintf("%.2f", r.spread/r.bound)
			if r.spread > r.bound {
				flag = "  WIDER THAN BOUND"
			}
		}
		fmt.Fprintf(stdout, "%-34s %12.6g %12.6g %12.6g %8.4f %7s %10s%s\n",
			r.name, r.median, r.q1, r.q3, r.spread, bound, ratio, flag)
	}
	if wide > 0 {
		fmt.Fprintf(stdout, "%d metric(s) spread wider than their bound\n", wide)
	}
	return nil
}

// runSeeds runs the workload once per seed, one process at a time, and
// parses each run's result line. A run that fails its checks stops the
// report.
func runSeeds(name string, runs int, firstSeed int64, seconds, traced int, stderr io.Writer) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var results []*result
	for i := 0; i < runs; i++ {
		seed := firstSeed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		r, err := lastResult(out)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		fmt.Fprintf(stderr, "steady: %s seed %d: correct %v%s\n", name, seed, r.Correct, e2eSummary(r))
		results = append(results, r)
	}
	return results, nil
}

// lastResult parses the last non-empty line of a run's output.
func lastResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &r, nil
}

// steadyRow is one metric's spread over the runs.
type steadyRow struct {
	name                   string
	median, q1, q3, spread float64
	bound                  float64 // 0 when the metric has none
}

// steadiness computes every metric's quartiles over the runs and counts the
// metrics whose spread exceeds their bound.
func steadiness(results []*result, bounds map[string]float64) ([]steadyRow, int) {
	values := make(map[string][]float64)
	for _, r := range results {
		for name, v := range r.Metrics {
			values[name] = append(values[name], v.Value)
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	var rows []steadyRow
	wide := 0
	for _, n := range names {
		xs := values[n]
		if len(xs) < 2 {
			continue
		}
		q := quartiles(xs)
		row := steadyRow{name: n, q1: q[0], median: q[1], q3: q[2], bound: bounds[n]}
		if row.median != 0 {
			row.spread = (row.q3 - row.q1) / row.median
		}
		if row.bound > 0 && row.spread > row.bound {
			wide++
		}
		rows = append(rows, row)
	}
	return rows, wide
}

// quartiles returns Q1, the median and Q3 of at least two values, as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q
}

// e2eSummary lists a result's end-to-end metrics for the progress line.
func e2eSummary(r *result) string {
	var s string
	for _, d := range e2eCatalogue {
		if v, ok := r.Metrics[d.name]; ok {
			s += fmt.Sprintf(", %s %.4g", d.name, v.Value)
		}
	}
	return s
}
