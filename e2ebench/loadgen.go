package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The serve-mix job kinds, in jobKindNames order.
const (
	kindClassifyLU32 = iota
	kindClassifyWATER16
	kindFig5LU32
	kindUploadLU32
	numKinds
)

// jobMix is each job kind's share of the traffic, in jobKindNames order.
var jobMix = [numKinds]float64{0.55, 0.10, 0.20, 0.15}

// The open-loop rates, in jobs/s: 20% and 50% of the mix's two-client
// capacity on a busy 2-CPU host (about 50 jobs/s; it read 34–213 jobs/s as
// the machine's other tenants came and went). They are constants so that
// every commit is offered the same load.
const (
	lowRate  = 10.0
	highRate = 25.0
)

// clients is the number of client connections; all come from this process.
const clients = 2

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported.
const minBeyond = 10

// arrival is one scheduled request of an open-loop phase.
type arrival struct {
	due  time.Duration // since the phase start
	kind int
}

// schedule returns the first n Poisson arrivals of an open-loop phase:
// exponential inter-arrival times at rate jobs/s, each job's kind drawn
// from jobMix. It is a pure function of (seed, rate, n); the phase lasts
// about n/rate seconds. A fixed count rather than a fixed duration
// guarantees the samples a p95 needs.
func schedule(seed int64, rate float64, n int) []arrival {
	rng := rand.New(rand.NewSource(subSeed(seed, math.Float64bits(rate))))
	out := make([]arrival, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = arrival{due: time.Duration(t * float64(time.Second)), kind: pickKind(rng)}
	}
	return out
}

func pickKind(rng *rand.Rand) int {
	u := rng.Float64()
	for k, w := range jobMix {
		if u < w {
			return k
		}
		u -= w
	}
	return numKinds - 1
}

// closedLoopJobs returns one closed-loop round: n job kinds in jobMix's
// proportions (rounded), in an order shuffled by (seed, round), so every
// seed and round offers the same total work.
func closedLoopJobs(seed int64, round, n int) []int {
	jobs := make([]int, 0, n)
	for k, w := range jobMix {
		for i := 0; i < int(math.Round(w*float64(n))); i++ {
			jobs = append(jobs, k)
		}
	}
	for len(jobs) < n {
		jobs = append(jobs, kindClassifyLU32)
	}
	jobs = jobs[:n]
	rng := rand.New(rand.NewSource(subSeed(seed, uint64(round))))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// subSeed derives one phase's generator seed (splitmix64 finalizer).
func subSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) ^ salt*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// percentile returns the nearest-rank q-quantile of the sorted samples and
// whether at least minBeyond samples lie beyond it, the condition for
// reporting it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := max(int(math.Ceil(q*float64(n))), 1)
	return sorted[rank-1], n-rank >= minBeyond
}

// request is one job kind's HTTP request.
type request struct {
	path, contentType string
	body              []byte
}

// jobRequests are the serve-mix job kinds' requests; upload carries the
// packed LU32 trace.
func jobRequests(upload []byte) [numKinds]request {
	spec := func(s string) request {
		return request{path: "/v1/jobs", contentType: "application/json", body: []byte(s)}
	}
	return [numKinds]request{
		kindClassifyLU32:    spec(`{"experiment":"classify","workload":"LU32"}`),
		kindClassifyWATER16: spec(`{"experiment":"classify","workload":"WATER16"}`),
		kindFig5LU32:        spec(`{"experiment":"fig5","workloads":["LU32"]}`),
		kindUploadLU32: {path: "/v1/jobs?block=64", contentType: "application/octet-stream",
			body: upload},
	}
}

// client submits jobs over at most `clients` keep-alive connections and
// counts the connections it dials.
type client struct {
	base  string
	http  *http.Client
	reqs  [numKinds]request
	dials atomic.Int64
}

func newClient(addr string, reqs [numKinds]request) *client {
	c := &client{base: "http://" + addr, reqs: reqs}
	dialer := &net.Dialer{}
	c.http = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
		},
	}
	return c
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one job's outcome.
type reply struct {
	status    int
	body      []byte
	serviceMs float64 // the server's X-Job-Elapsed-Ms
}

func (c *client) submit(kind int) (reply, error) {
	rq := c.reqs[kind]
	resp, err := c.http.Post(c.base+rq.path, rq.contentType, bytes.NewReader(rq.body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, body: body}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	r.serviceMs, err = strconv.ParseFloat(resp.Header.Get("X-Job-Elapsed-Ms"), 64)
	if err != nil {
		return r, fmt.Errorf("X-Job-Elapsed-Ms: %w", err)
	}
	return r, nil
}

// get fetches a JSON endpoint's body.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return body, err
}

// sample is one job of a phase.
type sample struct {
	kind int
	// latency is from the job's due time to its reply; lateness is how
	// late the generator handed it to a connection.
	latency, lateness time.Duration
	serviceMs         float64
	// err is a failed request or an output that differs from its
	// reference.
	err error
}

// jobFunc runs one job on connection worker w and fills in everything but
// the latency and lateness.
type jobFunc func(w, kind int) sample

// openLoop offers the arrivals on their schedule. The generator never
// blocks: a job due while both connections are busy waits in a queue, and
// that wait counts in its latency, which is timed from the due time.
func openLoop(arrivals []arrival, run jobFunc) []sample {
	samples := make([]sample, len(arrivals))
	lateness := make([]time.Duration, len(arrivals))
	// One slot per arrival, so a send never blocks the generator.
	queue := make(chan int, len(arrivals))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				a := arrivals[i]
				s := run(w, a.kind)
				s.latency = time.Since(start) - a.due
				samples[i] = s
			}
		}(w)
	}
	for i, a := range arrivals {
		time.Sleep(time.Until(start.Add(a.due)))
		lateness[i] = time.Since(start) - a.due
		queue <- i
	}
	close(queue)
	wg.Wait()
	for i := range samples {
		samples[i].lateness = lateness[i]
	}
	return samples
}

// closedLoop runs the jobs on always-busy connections, each taking the next
// job as soon as its previous one returns, and reports the makespan.
func closedLoop(jobs []int, run jobFunc) ([]sample, time.Duration) {
	samples := make([]sample, len(jobs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				t0 := time.Now()
				s := run(w, jobs[i])
				s.latency = time.Since(t0)
				samples[i] = s
			}
		}(w)
	}
	wg.Wait()
	return samples, time.Since(start)
}

// latenciesMs returns the sorted latencies of the samples, in ms.
func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.latency) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
