package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestIATSeededDeterminism(t *testing.T) {
	for _, dist := range []string{"exponential", "uniform", "equidistant"} {
		a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		for i := 0; i < 100; i++ {
			if x, y := iat(a, dist, 50), iat(b, dist, 50); x != y {
				t.Fatalf("%s: draw %d differs across equal seeds: %v vs %v", dist, i, x, y)
			}
		}
	}
}

func TestIATDistributionShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rate, n = 100.0, 20000
	mean := time.Duration(float64(time.Second) / rate)

	for i := 0; i < 10; i++ {
		if got := iat(rng, "equidistant", rate); got != mean {
			t.Fatalf("equidistant gap %v, want %v", got, mean)
		}
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		gap := iat(rng, "exponential", rate)
		sum += gap.Seconds()
	}
	if got := sum / n; math.Abs(got-1/rate) > 0.1/rate {
		t.Errorf("exponential mean %.5fs, want ~%.5fs", got, 1/rate)
	}
	for i := 0; i < n; i++ {
		gap := iat(rng, "uniform", rate)
		if gap < 0 || gap.Seconds() >= 2/rate {
			t.Fatalf("uniform gap %v outside [0, 2/rate)", gap)
		}
	}
}

func TestRateAtShapes(t *testing.T) {
	c := Config{Mode: "constant", RPS: 10, Period: time.Second, StepRPS: 5, Duty: 0.5}
	if got := c.rateAt(42 * time.Second); got != 10 {
		t.Errorf("constant: %v", got)
	}
	c.Mode = "step"
	if got := c.rateAt(500 * time.Millisecond); got != 10 {
		t.Errorf("step period 0: %v", got)
	}
	if got := c.rateAt(2500 * time.Millisecond); got != 20 {
		t.Errorf("step period 2: %v, want 20", got)
	}
	c.Mode = "burst"
	if got := c.rateAt(100 * time.Millisecond); got != 10 {
		t.Errorf("burst on phase: %v", got)
	}
	if got := c.rateAt(700 * time.Millisecond); got != 0 {
		t.Errorf("burst off phase: %v, want 0", got)
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{BaseURL: "http://x", RPS: 1, Duration: time.Second, Bodies: [][]byte{[]byte("{}")}}
	if _, err := base.withDefaults(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{RPS: 1, Duration: time.Second, Bodies: base.Bodies},                                    // no URL
		{BaseURL: "http://x", RPS: 1, Duration: time.Second},                                    // no bodies
		{BaseURL: "http://x", Duration: time.Second, Bodies: base.Bodies},                       // no rps
		{BaseURL: "http://x", RPS: 1, Bodies: base.Bodies},                                      // no duration
		{BaseURL: "http://x", RPS: 1, Duration: time.Second, Bodies: base.Bodies, Mode: "saw"},  // bad mode
		{BaseURL: "http://x", RPS: 1, Duration: time.Second, Bodies: base.Bodies, Dist: "zipf"}, // bad dist
	}
	for i, cfg := range bad {
		if _, err := cfg.withDefaults(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestQuantile(t *testing.T) {
	var sorted []time.Duration
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, time.Duration(i)*time.Millisecond)
	}
	if got := quantile(sorted, 0.50); got < 49*time.Millisecond || got > 52*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := quantile(sorted, 0.99); got < 98*time.Millisecond {
		t.Errorf("p99 = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

// TestRunAgainstStub drives a stub server: ok/shed responses are counted
// by status and typed code, and refs/s comes from the /v1/stats delta.
func TestRunAgainstStub(t *testing.T) {
	var calls, refs atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs":
			n := calls.Add(1)
			refs.Add(1000)
			if n%4 == 0 {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprint(w, `{"error":{"code":"overloaded","retryable":true}}`)
				return
			}
			fmt.Fprint(w, "scheme  class  misses\n")
		case "/v1/stats":
			fmt.Fprintf(w, `{"jobs":{},"refs":{"driven":%d}}`, refs.Load())
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		RPS:      300,
		Duration: 300 * time.Millisecond,
		Dist:     "equidistant",
		Seed:     7,
		Bodies:   [][]byte{[]byte(`{"experiment":"classify","workload":"LU32"}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 {
		t.Fatal("no requests sent")
	}
	if rep.OK == 0 || rep.Statuses[http.StatusOK] != rep.OK {
		t.Errorf("ok=%d statuses=%v", rep.OK, rep.Statuses)
	}
	if rep.Codes["overloaded"] == 0 {
		t.Errorf("shed responses not coded: %v", rep.Codes)
	}
	if rep.Sent != rep.OK+rep.Statuses[http.StatusTooManyRequests] {
		t.Errorf("sent %d != ok %d + shed %d", rep.Sent, rep.OK, rep.Statuses[http.StatusTooManyRequests])
	}
	if rep.RefsPerSec <= 0 {
		t.Errorf("refs/s = %v, want > 0", rep.RefsPerSec)
	}
	if rep.JobsPerSec <= 0 || rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Errorf("throughput/latency summary broken: %v %v %v", rep.JobsPerSec, rep.P50, rep.P99)
	}
}

// TestRunSameSeedSameSchedule: the arrival schedule is a pure function of
// the seed — two runs against a counting stub offer the same load.
func TestRunSameSeedSameSchedule(t *testing.T) {
	run := func() *Report {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/stats" {
				fmt.Fprint(w, `{"jobs":{},"refs":{"driven":0}}`)
				return
			}
			fmt.Fprint(w, "ok\n")
		}))
		defer srv.Close()
		rep, err := Run(context.Background(), Config{
			BaseURL: srv.URL, RPS: 200, Duration: 250 * time.Millisecond,
			Dist: "equidistant", Seed: 7,
			Bodies: [][]byte{[]byte(`{}`)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	// Equidistant arrivals at a fixed rate: the schedules are identical,
	// so the counts may differ only by scheduler jitter at the edge.
	if diff := a.Sent - b.Sent; diff < -2 || diff > 2 {
		t.Errorf("same seed sent %d vs %d", a.Sent, b.Sent)
	}
}

func TestReportFprint(t *testing.T) {
	rep := &Report{
		Mode: "constant", Dist: "exponential", OfferedRPS: 10,
		Elapsed: 2 * time.Second, Sent: 20, OK: 18,
		Statuses:  map[int]int{200: 18, 429: 2},
		Codes:     map[string]int{"overloaded": 2},
		latencies: []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond},
	}
	rep.finish()
	var buf bytes.Buffer
	if err := rep.Fprint(&buf, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"jobs_per_sec", "p99_ms", "overloaded", "429"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := rep.Fprint(&csv, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "jobs_per_sec,9.00") {
		t.Errorf("CSV report missing jobs_per_sec row:\n%s", csv.String())
	}
}

// TestReportJSONRoundTrip guards the stats shape the generator reads.
func TestReportJSONRoundTrip(t *testing.T) {
	var s serverStats
	blob := `{"queue":{"depth":1},"jobs":{"admitted":3},"refs":{"driven":42,"collected":9}}`
	if err := json.Unmarshal([]byte(blob), &s); err != nil {
		t.Fatal(err)
	}
	if s.Refs.Driven != 42 {
		t.Errorf("decoded %+v", s)
	}
}
