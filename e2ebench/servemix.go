package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/experiment"
	"repro/internal/serve"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// The serve-mix pass: closedRounds closed-loop rounds of roundJobs jobs,
// spread around an open-loop phase of openJobs arrivals at each rate.
// Taking the rounds' median keeps a burst of load from the machine's other
// tenants from setting wall_s. openJobs leaves a p95 its minBeyond samples
// beyond.
const (
	openJobs     = 210
	closedRounds = 5
	roundJobs    = 180
)

// serveMix drives the serve server, in its default configuration, with the
// seeded job mix of loadgen.go. Every 200 body must equal the same job
// rendered offline.
type serveMix struct {
	b *bench
	// want holds each job kind's offline rendering.
	want [numKinds][]byte
	reqs [numKinds]request
	// upload is the packed LU32 trace the upload jobs send.
	upload   []byte
	packSecs float64

	client *client
	stop   context.CancelFunc
	done   chan error
}

// newServeMix renders every job kind offline, through the same drivers the
// server runs, and packs the LU32 upload.
func newServeMix(b *bench) (runner, error) {
	w := &serveMix{b: b}
	lu, err := workload.Get("LU32")
	if err != nil {
		return nil, err
	}
	water, err := workload.Get("WATER16")
	if err != nil {
		return nil, err
	}
	var packed bytes.Buffer
	w.packSecs, err = timed(func() error {
		_, err := lu.Pack(&packed, tracestore.WriterOptions{})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("pack LU32: %w", err)
	}
	w.upload = packed.Bytes()
	w.reqs = jobRequests(w.upload)

	offline := [numKinds]func(experiment.Options) error{
		kindClassifyLU32: func(o experiment.Options) error {
			return experiment.ClassifyReader(o, lu.Reader(), 64, "all")
		},
		kindClassifyWATER16: func(o experiment.Options) error {
			return experiment.ClassifyReader(o, water.Reader(), 64, "all")
		},
		kindFig5LU32: func(o experiment.Options) error {
			o.Workloads = []string{"LU32"}
			return experiment.RunNamed("fig5", o, 0)
		},
		kindUploadLU32: func(o experiment.Options) error {
			f, err := tracestore.NewFile(bytes.NewReader(w.upload), int64(len(w.upload)))
			if err != nil {
				return err
			}
			return experiment.ClassifyReader(o, f.Reader(), 64, "all")
		},
	}
	for k, render := range offline {
		var buf bytes.Buffer
		if err := render(experiment.Options{Out: &buf}); err != nil {
			return nil, fmt.Errorf("offline %s: %w", jobKindNames[k], err)
		}
		w.want[k] = buf.Bytes()
	}
	return w, nil
}

// tracesProgram is false: the server runs drivers on its worker
// goroutines, and a driver's span goes on the recorder's single-writer
// main track, so two concurrent fig5 jobs would write one track from two
// goroutines. Serve-mix records the benchmark's own spans only.
func (w *serveMix) tracesProgram() bool { return false }

// setup starts a server on a free loopback port, waits until it is ready,
// and runs one warm-up job of each kind.
func (w *serveMix) setup() error {
	srv, err := serve.New(serve.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.stop, w.done = cancel, make(chan error, 1)
	go func() { w.done <- srv.Run(ctx) }()
	w.client = newClient(srv.Addr(), w.reqs)
	if err := w.waitReady(); err != nil {
		return err
	}
	for k := 0; k < numKinds; k++ {
		w.b.record("serve-mix warm-up "+jobKindNames[k], w.runJob(k))
	}
	return nil
}

func (w *serveMix) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := w.client.get("/readyz")
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runJob submits one job and checks its body.
func (w *serveMix) runJob(kind int) error {
	r, err := w.client.submit(kind)
	if err != nil {
		return err
	}
	return compareOutput(r.body, w.want[kind])
}

// close drains the server and waits for it to stop.
func (w *serveMix) close() error {
	if w.stop == nil {
		return nil
	}
	w.stop()
	err := <-w.done
	w.client.close()
	w.stop, w.done, w.client = nil, nil, nil
	return err
}

// jobStats is the /v1/stats job counters.
type jobStats struct {
	Jobs struct {
		Admitted, Rejected, Completed, Failed, Retries float64
	} `json:"jobs"`
}

func (w *serveMix) stats() (jobStats, error) {
	var s jobStats
	body, err := w.client.get("/v1/stats")
	if err == nil {
		err = json.Unmarshal(body, &s)
	}
	return s, err
}

// job returns the phase's job function: one HTTP job inside an own span on
// the connection's track, its body checked against the offline rendering.
func (w *serveMix) job(b *bench, pass *ownSpan) jobFunc {
	return func(conn, kind int) sample {
		sp := b.tr.start(connTracks[conn], "serve.job."+jobKindNames[kind], "serve", "core", pass)
		r, err := w.client.submit(kind)
		sp.end()
		if err == nil {
			err = compareOutput(r.body, w.want[kind])
		}
		return sample{kind: kind, serviceMs: r.serviceMs, err: err}
	}
}

var connTracks = [clients]string{"client 0", "client 1"}

func (w *serveMix) pass(b *bench) (passResult, error) {
	pass := b.tr.start("main", "pass", "unattributed", "", nil)
	before, err := w.stats()
	if err != nil {
		return passResult{}, err
	}
	run := w.job(b, pass)
	var closed []sample
	var rounds []float64
	var cpu float64
	round := func(r int) {
		cpu0 := cpuSeconds()
		samples, makespan := closedLoop(closedLoopJobs(b.seed, r, roundJobs), run)
		cpu += cpuSeconds() - cpu0
		closed = append(closed, samples...)
		rounds = append(rounds, makespan.Seconds())
	}
	round(0)
	round(1)
	low := openLoop(schedule(b.seed, lowRate, openJobs), run)
	round(2)
	high := openLoop(schedule(b.seed, highRate, openJobs), run)
	round(3)
	round(4)
	pass.end()
	after, err := w.stats()
	if err != nil {
		return passResult{}, err
	}

	m := metrics{}
	for _, phase := range [][]sample{low, high, closed} {
		for _, s := range phase {
			b.record("serve-mix "+jobKindNames[s.kind], s.err)
		}
	}
	fmt.Fprintf(b.out, "serve-mix phases (latency from the due time):\n")
	w.openLoopMetrics(b, m, "low", lowRate, low)
	w.openLoopMetrics(b, m, "high", highRate, high)
	wall := median(rounds)
	m["max_jobs_per_s"] = roundJobs / wall
	fmt.Fprintf(b.out, "  closed loop: rounds of %d jobs on %d busy connections in %s s, median %.1f jobs/s\n",
		roundJobs, clients, fmtList(rounds), m["max_jobs_per_s"])

	var lateness []float64
	for _, s := range append(append([]sample(nil), low...), high...) {
		lateness = append(lateness, float64(s.lateness)/float64(time.Millisecond))
	}
	sort.Float64s(lateness)
	m["loadgen.lateness_ms.p95"] = b.percentileMetric("loadgen.lateness_ms.p95", lateness, 0.95)
	m["loadgen.connections"] = float64(w.client.dials.Load())
	if n := w.client.dials.Load(); n > clients {
		b.record("serve-mix connections", fmt.Errorf("%d connections dialed, at most %d allowed", n, clients))
	}

	all := append(append(append([]sample(nil), low...), high...), closed...)
	var service []float64
	byKind := make([][]float64, numKinds)
	for _, s := range all {
		if s.err == nil {
			service = append(service, s.serviceMs)
			byKind[s.kind] = append(byKind[s.kind], s.serviceMs)
		}
	}
	sort.Float64s(service)
	m["serve.service_ms.p50"] = b.percentileMetric("serve.service_ms.p50", service, 0.50)
	m["serve.service_ms.p95"] = b.percentileMetric("serve.service_ms.p95", service, 0.95)
	for k, xs := range byKind {
		sort.Float64s(xs)
		name := "serve.service_ms." + jobKindNames[k]
		m[name] = b.percentileMetric(name, xs, 0.50)
	}
	// In the closed loop a job's latency starts when it is sent, so latency
	// minus service time is the HTTP and client share.
	var clientMs []float64
	for _, s := range closed {
		if s.err == nil {
			clientMs = append(clientMs, float64(s.latency)/float64(time.Millisecond)-s.serviceMs)
		}
	}
	sort.Float64s(clientMs)
	m["serve.client_ms.p50"] = b.percentileMetric("serve.client_ms.p50", clientMs, 0.50)

	m["serve.jobs.admitted"] = after.Jobs.Admitted - before.Jobs.Admitted
	m["serve.jobs.rejected"] = after.Jobs.Rejected - before.Jobs.Rejected
	m["serve.jobs.completed"] = after.Jobs.Completed - before.Jobs.Completed
	m["serve.jobs.failed"] = after.Jobs.Failed - before.Jobs.Failed
	m["serve.jobs.retries"] = after.Jobs.Retries - before.Jobs.Retries
	return passResult{wall: wall, cpu: cpu / closedRounds, parts: []float64{wall}, layer: m}, nil
}

// openLoopMetrics records one open-loop phase's latency percentiles and
// sample count, and prints them.
func (w *serveMix) openLoopMetrics(b *bench, m metrics, name string, rate float64, samples []sample) {
	lat := latenciesMs(samples)
	p50 := b.percentileMetric("p50_ms."+name, lat, 0.50)
	p95 := b.percentileMetric("p95_ms."+name, lat, 0.95)
	m["p50_ms."+name], m["p95_ms."+name] = p50, p95
	m["loadgen.samples."+name] = float64(len(samples))
	fmt.Fprintf(b.out, "  %-4s %4.0f jobs/s: %d samples, p50 %.2f ms, p95 %.2f ms\n", name, rate, len(samples), p50, p95)
}

// percentileMetric returns the q-quantile of sorted, or fails the run when
// fewer than minBeyond samples lie beyond it.
func (b *bench) percentileMetric(name string, sorted []float64, q float64) float64 {
	v, ok := percentile(sorted, q)
	if !ok {
		b.record(name, fmt.Errorf("%d samples leave fewer than %d beyond the percentile", len(sorted), minBeyond))
		return 0
	}
	return v
}

// probes records the upload's packing, then times a decode-only pass over
// it and a generation-only pass over the two generated data sets.
func (w *serveMix) probes(b *bench, m metrics) error {
	f, err := tracestore.NewFile(bytes.NewReader(w.upload), int64(len(w.upload)))
	if err != nil {
		return err
	}
	var refs uint64
	secs, err := timed(func() error {
		refs, err = drain(f.Reader())
		return err
	})
	if err != nil {
		return fmt.Errorf("decode probe: %w", err)
	}
	if refs == 0 {
		return errors.New("decode probe: empty upload")
	}
	m["tracestore.pack_s"] = w.packSecs
	m["tracestore.bytes_per_ref"] = float64(len(w.upload)) / float64(refs)
	m["tracestore.decode_ns_per_ref"] = secs * 1e9 / float64(refs)
	return genProbe(m, []string{"LU32", "WATER16"})
}
