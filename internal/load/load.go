// Package load is the serving mode's invitro-style load generator: an
// open-loop driver that submits jobs to a running uselessmiss server on a
// seeded arrival process — constant, stepped or bursty RPS with
// exponential, uniform or equidistant inter-arrival times — and reports
// sustained throughput (jobs/s and replayed refs/s, read as a /v1/stats
// delta) and latency quantiles. It is the chaos suite's traffic half: the
// typed error codes of a server whose trace readers fault come back in the
// report's breakdown.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Config tunes one load run.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8095".
	BaseURL string
	// Mode shapes the offered rate over time: "constant" holds RPS;
	// "step" adds StepRPS every Period; "burst" alternates RPS and idle
	// on a Period with Duty as the on fraction.
	Mode string
	// RPS is the offered arrival rate (mode-shaped), jobs per second.
	RPS float64
	// StepRPS is the step mode's per-period increment (default RPS).
	StepRPS float64
	// Period is the step/burst period (default Duration/4).
	Period time.Duration
	// Duty is the burst mode's on fraction in (0,1] (default 0.5).
	Duty float64
	// Duration is how long to offer load.
	Duration time.Duration
	// Dist picks the inter-arrival distribution: "exponential" (Poisson
	// arrivals, the default), "uniform" (U(0, 2/rate)), or
	// "equidistant" (a metronome).
	Dist string
	// Seed drives the arrival process and body round-robin; a fixed
	// seed replays the same offered-load schedule.
	Seed int64
	// Bodies are the JSON job specs to submit, round-robin. At least
	// one is required.
	Bodies [][]byte
	// MaxInflight caps concurrent in-flight requests; beyond it
	// arrivals are dropped and counted (open-loop overload, default
	// 512).
	MaxInflight int
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
}

func (c Config) withDefaults() (Config, error) {
	if c.BaseURL == "" {
		return c, fmt.Errorf("load: missing base URL")
	}
	if len(c.Bodies) == 0 {
		return c, fmt.Errorf("load: no job bodies to submit")
	}
	if c.RPS <= 0 {
		return c, fmt.Errorf("load: rps must be positive")
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("load: duration must be positive")
	}
	switch c.Mode {
	case "":
		c.Mode = "constant"
	case "constant", "step", "burst":
	default:
		return c, fmt.Errorf("load: unknown mode %q (want constant, step or burst)", c.Mode)
	}
	switch c.Dist {
	case "":
		c.Dist = "exponential"
	case "exponential", "uniform", "equidistant":
	default:
		return c, fmt.Errorf("load: unknown distribution %q (want exponential, uniform or equidistant)", c.Dist)
	}
	if c.StepRPS <= 0 {
		c.StepRPS = c.RPS
	}
	if c.Period <= 0 {
		c.Period = c.Duration / 4
		if c.Period <= 0 {
			c.Period = c.Duration
		}
	}
	if c.Duty <= 0 || c.Duty > 1 {
		c.Duty = 0.5
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 512
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c, nil
}

// rateAt is the offered rate t into the run, per the mode shape. Burst's
// off phase returns 0 (the generator skips to the next on edge).
func (c *Config) rateAt(t time.Duration) float64 {
	switch c.Mode {
	case "step":
		return c.RPS + float64(int(t/c.Period))*c.StepRPS
	case "burst":
		phase := t % c.Period
		if float64(phase) >= c.Duty*float64(c.Period) {
			return 0
		}
	}
	return c.RPS
}

// Run offers load against the server until the duration elapses or ctx is
// canceled, then waits for in-flight requests and returns the report.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	before, statsErr := fetchStats(ctx, cfg.Client, cfg.BaseURL)

	rep := &Report{
		Mode: cfg.Mode, Dist: cfg.Dist, OfferedRPS: cfg.RPS,
		Statuses: make(map[int]int), Codes: make(map[string]int),
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	inflight := make(chan struct{}, cfg.MaxInflight)

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C

	bodyIdx := 0
loop:
	for {
		elapsed := time.Since(start)
		if elapsed >= cfg.Duration {
			break
		}
		rate := cfg.rateAt(elapsed)
		var wait time.Duration
		if rate <= 0 {
			// Burst off phase: jump to the next period edge.
			wait = cfg.Period - elapsed%cfg.Period
		} else {
			wait = iat(rng, cfg.Dist, rate)
		}
		if next := time.Now().Add(wait); next.After(deadline) {
			wait = time.Until(deadline)
		}
		timer.Reset(wait)
		select {
		case <-ctx.Done():
			break loop
		case <-timer.C:
		}
		if time.Since(start) >= cfg.Duration {
			break
		}
		if rate <= 0 {
			continue
		}

		body := cfg.Bodies[bodyIdx%len(cfg.Bodies)]
		bodyIdx++
		select {
		case inflight <- struct{}{}:
		default:
			mu.Lock()
			rep.Dropped++
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			defer func() { <-inflight }()
			status, code, lat := submit(ctx, cfg.Client, cfg.BaseURL, body)
			mu.Lock()
			rep.Sent++
			rep.Statuses[status]++
			if code != "" {
				rep.Codes[code]++
			}
			if status == http.StatusOK {
				rep.OK++
				rep.latencies = append(rep.latencies, lat)
			}
			mu.Unlock()
		}(body)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)

	if statsErr == nil {
		if after, err := fetchStats(ctx, cfg.Client, cfg.BaseURL); err == nil {
			rep.RefsPerSec = float64(after.Refs.Driven-before.Refs.Driven) / rep.Elapsed.Seconds()
		}
	}
	rep.finish()
	return rep, nil
}

// iat draws one inter-arrival gap for the distribution at the given rate.
func iat(rng *rand.Rand, dist string, rate float64) time.Duration {
	mean := 1 / rate
	var secs float64
	switch dist {
	case "uniform":
		secs = rng.Float64() * 2 * mean
	case "equidistant":
		secs = mean
	default: // exponential
		secs = rng.ExpFloat64() * mean
	}
	return time.Duration(secs * float64(time.Second))
}

// submit posts one job body and classifies the outcome: HTTP status, the
// envelope's error code for non-200s, and the request latency.
func submit(ctx context.Context, client *http.Client, base string, body []byte) (status int, code string, lat time.Duration) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, "transport", 0
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(req)
	lat = time.Since(t0)
	if err != nil {
		return 0, "transport", lat
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
		return resp.StatusCode, "", lat
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	code = "unknown"
	if err := json.NewDecoder(resp.Body).Decode(&env); err == nil && env.Error.Code != "" {
		code = env.Error.Code
	}
	return resp.StatusCode, code, lat
}

// serverStats mirrors the slice of /v1/stats the generator reads.
type serverStats struct {
	Refs struct {
		Driven uint64 `json:"driven"`
	} `json:"refs"`
}

func fetchStats(ctx context.Context, client *http.Client, base string) (*serverStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: stats: HTTP %d", resp.StatusCode)
	}
	var s serverStats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Report is one load run's outcome.
type Report struct {
	Mode       string
	Dist       string
	OfferedRPS float64
	Elapsed    time.Duration

	Sent    int
	OK      int
	Dropped int // arrivals shed client-side at the in-flight cap

	Statuses map[int]int    // HTTP status → count
	Codes    map[string]int // typed error code → count (non-200s)

	RefsPerSec float64 // replayed refs/s from the /v1/stats delta
	JobsPerSec float64 // completed (200) jobs per second
	P50, P99   time.Duration

	latencies []time.Duration
}

func (r *Report) finish() {
	if r.Elapsed > 0 {
		r.JobsPerSec = float64(r.OK) / r.Elapsed.Seconds()
	}
	if len(r.latencies) == 0 {
		return
	}
	sort.Slice(r.latencies, func(i, j int) bool { return r.latencies[i] < r.latencies[j] })
	r.P50 = quantile(r.latencies, 0.50)
	r.P99 = quantile(r.latencies, 0.99)
}

// quantile reads q from the sorted sample by nearest-rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
