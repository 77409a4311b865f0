package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// testServer is one running server under test: its base URL, the cancel
// that starts its drain, and the channel Run's verdict arrives on.
type testServer struct {
	s      *Server
	base   string
	cancel context.CancelFunc
	runErr chan error
}

// startTestServer boots a server on a free port and waits for /readyz.
func startTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ts := &testServer{s: s, base: "http://" + s.Addr(), cancel: cancel, runErr: make(chan error, 1)}
	go func() { ts.runErr <- s.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-ts.runErr:
		case <-time.After(30 * time.Second):
			t.Error("server did not stop in cleanup")
			s.Close()
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ts
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// drain cancels the run context and returns Run's verdict.
func (ts *testServer) drain(t *testing.T) error {
	t.Helper()
	ts.cancel()
	select {
	case err := <-ts.runErr:
		ts.runErr <- err // keep cleanup's read satisfied
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("drain hung")
		return nil
	}
}

// submitResult is one submission's outcome.
type submitResult struct {
	status int
	body   []byte
	code   string // envelope error code for non-200s
	retry  string // Retry-After header
}

// submit posts a JSON job spec and decodes the outcome.
func submit(t *testing.T, base, spec string) submitResult {
	t.Helper()
	return post(t, base+"/v1/jobs", "application/json", []byte(spec))
}

// upload posts raw trace bytes with the classify parameters in query.
func upload(t *testing.T, base, query string, body []byte) submitResult {
	t.Helper()
	return post(t, base+"/v1/jobs?"+query, "application/octet-stream", body)
}

// post submits one body and decodes the outcome.
func post(t *testing.T, url, contentType string, body []byte) submitResult {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("submit read: %v", err)
	}
	res := submitResult{
		status: resp.StatusCode,
		body:   out,
		retry:  resp.Header.Get("Retry-After"),
	}
	if resp.StatusCode != http.StatusOK {
		var env errorEnvelope
		if err := json.Unmarshal(out, &env); err != nil {
			t.Fatalf("status %d with unparsable envelope %q: %v", resp.StatusCode, out, err)
		}
		res.code = string(env.Error.Code)
	}
	return res
}

// offlineClassify renders the offline table for one workload — the bytes
// every clean server job must match exactly.
func offlineClassify(t *testing.T, name string, block int, scheme string) []byte {
	t.Helper()
	w, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := experiment.ClassifyReader(experiment.Options{Out: &buf}, w.Reader(), block, scheme); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// smallBody packs the first refs references of LU32 into several segments:
// an upload body.
func smallBody(tb testing.TB, refs int) []byte {
	tb.Helper()
	w, err := workload.Get("LU32")
	if err != nil {
		tb.Fatal(err)
	}
	r := w.Reader()
	defer trace.CloseReader(r)
	tr := trace.New(r.NumProcs())
	for len(tr.Refs) < refs {
		ref, err := r.Next()
		if err != nil {
			tb.Fatal(err)
		}
		tr.Append(ref)
	}
	var p bytes.Buffer
	if _, err := tracestore.Pack(&p, tr.Reader(), tracestore.WriterOptions{SegmentRefs: refs / 4}); err != nil {
		tb.Fatal(err)
	}
	return p.Bytes()
}

// stallAll is a reader hook that parks every job for d before its first
// reference.
func stallAll(d time.Duration) func(trace.Reader) trace.Reader {
	return func(r trace.Reader) trace.Reader { return fault.StallAt(r, 0, d) }
}

func TestSubmitClassifyMatchesOffline(t *testing.T) {
	ts := startTestServer(t, Config{})
	want := offlineClassify(t, "LU32", 64, "all")
	res := submit(t, ts.base, `{"experiment":"classify","workload":"LU32","block":64}`)
	if res.status != http.StatusOK {
		t.Fatalf("status %d: %s", res.status, res.body)
	}
	if !bytes.Equal(res.body, want) {
		t.Fatalf("server table differs from offline:\n--- want ---\n%s--- got ---\n%s", want, res.body)
	}
	if err := ts.drain(t); err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
}

func TestSubmitExperimentMatchesDriver(t *testing.T) {
	ts := startTestServer(t, Config{})
	var want strings.Builder
	o := experiment.Options{Out: &want, Quick: true, Workloads: []string{"JACOBI"}, Blocks: []int{32, 64}}
	if err := experiment.RunNamed("fig5", o, 0); err != nil {
		t.Fatal(err)
	}
	res := submit(t, ts.base, `{"experiment":"fig5","quick":true,"workloads":["JACOBI"],"blocks":[32,64]}`)
	if res.status != http.StatusOK {
		t.Fatalf("status %d: %s", res.status, res.body)
	}
	if string(res.body) != want.String() {
		t.Fatalf("server fig5 differs from driver:\n--- want ---\n%s--- got ---\n%s", want.String(), res.body)
	}
}

// badSpecs are JSON specs validate rejects before admission, with the
// status and code each gets. FuzzJobSpec seeds its corpus from them.
var badSpecs = []struct {
	name, spec string
	status     int
	code       Code
}{
	{"bad json", `{"experiment":`, http.StatusBadRequest, CodeBadRequest},
	{"unknown field", `{"experiment":"classify","workload":"LU32","bogus":1}`, http.StatusBadRequest, CodeBadRequest},
	{"retired shards field", `{"experiment":"fig5","workloads":["LU32"],"shards":8}`, http.StatusBadRequest, CodeBadRequest},
	{"missing experiment", `{}`, http.StatusBadRequest, CodeBadRequest},
	{"classify without workload", `{"experiment":"classify"}`, http.StatusBadRequest, CodeBadRequest},
	{"bad scheme", `{"experiment":"classify","workload":"LU32","scheme":"theirs"}`, http.StatusBadRequest, CodeBadRequest},
	{"negative block", `{"experiment":"classify","workload":"LU32","block":-1}`, http.StatusBadRequest, CodeBadRequest},
	{"sub-word block", `{"experiment":"classify","workload":"LU32","block":3}`, http.StatusBadRequest, CodeBadRequest},
	{"1 GiB block", `{"experiment":"classify","workload":"LU32","block":1073741824}`, http.StatusBadRequest, CodeBadRequest},
	{"zero blocks entry", `{"experiment":"fig5","quick":true,"workloads":["LU32"],"blocks":[0]}`, http.StatusBadRequest, CodeBadRequest},
	{"non-power-of-two blocks entry", `{"experiment":"fig5","quick":true,"workloads":["LU32"],"blocks":[24]}`, http.StatusBadRequest, CodeBadRequest},
	{"unknown experiment", `{"experiment":"penalty"}`, http.StatusNotFound, CodeUnknown},
	{"unknown workload", `{"experiment":"classify","workload":"NOPE"}`, http.StatusNotFound, CodeUnknown},
	{"unknown sweep workload", `{"experiment":"fig5","workloads":["NOPE"]}`, http.StatusNotFound, CodeUnknown},
	{"unknown protocol", `{"experiment":"fig6","quick":true,"workloads":["LU32"],"protocols":["BOGUS"]}`, http.StatusNotFound, CodeUnknown},
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	ts := startTestServer(t, Config{})
	for _, tc := range badSpecs {
		res := submit(t, ts.base, tc.spec)
		if res.status != tc.status || res.code != string(tc.code) {
			t.Errorf("%s: got %d/%s, want %d/%s", tc.name, res.status, res.code, tc.status, tc.code)
		}
	}
	body := smallBody(t, 64)
	if res := upload(t, ts.base, "block=3", body); res.status != http.StatusBadRequest || res.code != string(CodeBadRequest) {
		t.Errorf("upload with block=3: got %d/%s, want 400/bad_request", res.status, res.code)
	}
	// A flipped payload byte passes Open, which reads only the header and
	// the TOC, and fails the segment's CRC mid-replay.
	corrupt := bytes.Clone(body)
	corrupt[10] ^= 0x40
	if res := upload(t, ts.base, "block=64", corrupt); res.status != http.StatusBadRequest || res.code != string(CodeBadRequest) {
		t.Errorf("upload with a corrupt segment: got %d/%s, want 400/bad_request", res.status, res.code)
	}
}

// TestHugeTimeoutIsClamped: a timeout_ms past what time.Duration can hold
// is clamped to MaxJobTimeout, not wrapped into an expired deadline.
func TestHugeTimeoutIsClamped(t *testing.T) {
	ts := startTestServer(t, Config{})
	want := offlineClassify(t, "LU32", 64, "all")
	res := submit(t, ts.base, `{"experiment":"classify","workload":"LU32","timeout_ms":10000000000000}`)
	if res.status != http.StatusOK {
		t.Fatalf("status %d/%s: %s", res.status, res.code, res.body)
	}
	if !bytes.Equal(res.body, want) {
		t.Fatal("server table differs from offline")
	}
}

// TestOverloadSheds429 pins the admission contract: a full queue and a
// tenant over its cap both shed immediately with 429 + Retry-After while
// other tenants still get in.
func TestOverloadSheds429(t *testing.T) {
	ts := startTestServer(t, Config{
		Workers:    1,
		QueueDepth: 2,
		TenantCap:  1,
		wrap:       stallAll(400 * time.Millisecond),
	})
	spec := func(tenant string) string {
		return fmt.Sprintf(`{"experiment":"classify","workload":"LU32","tenant":%q}`, tenant)
	}
	var wg sync.WaitGroup
	results := make([]submitResult, 2)
	for i, tenant := range []string{"a", "b"} {
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			results[i] = submit(t, ts.base, spec(tenant))
		}(i, tenant)
	}
	// Wait until both jobs hold admission slots (1 running + 1 queued).
	deadline := time.Now().Add(3 * time.Second)
	for {
		depth, _, _ := ts.s.adm.snapshot()
		if depth == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs never occupied the queue")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Queue full: tenant c sheds with 429.
	res := submit(t, ts.base, spec("c"))
	if res.status != http.StatusTooManyRequests || res.code != string(CodeOverload) {
		t.Fatalf("full queue: got %d/%s, want 429/overloaded", res.status, res.code)
	}
	if res.retry == "" {
		t.Error("429 without Retry-After")
	}
	// Tenant a at its cap sheds too, even after the queue frees up.
	wg.Wait()
	for _, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("slow job failed: %d %s", r.status, r.body)
		}
	}
	done := make(chan submitResult, 1)
	go func() { done <- submit(t, ts.base, spec("a")) }()
	waitDepth := func(n int) {
		deadline := time.Now().Add(3 * time.Second)
		for {
			depth, _, _ := ts.s.adm.snapshot()
			if depth == n {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("queue depth never reached %d", n)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitDepth(1)
	res = submit(t, ts.base, spec("a"))
	if res.status != http.StatusTooManyRequests || res.code != string(CodeOverload) {
		t.Fatalf("tenant cap: got %d/%s, want 429/overloaded", res.status, res.code)
	}
	// Another tenant still fits (queue has a free slot).
	res = submit(t, ts.base, spec("b"))
	if res.status != http.StatusOK {
		t.Fatalf("tenant b blocked by tenant a's cap: %d/%s", res.status, res.code)
	}
	if r := <-done; r.status != http.StatusOK {
		t.Fatalf("tenant a's in-cap job failed: %d/%s", r.status, r.code)
	}
}

// TestDrainReadyzRegression pins satellite 2's contract: during a graceful
// drain /readyz flips unready BEFORE the listener stops accepting — probes
// see 503 while submissions still get typed "draining" responses and
// in-flight jobs run to completion.
func TestDrainReadyzRegression(t *testing.T) {
	ts := startTestServer(t, Config{
		DrainTimeout: 20 * time.Second,
		wrap:         stallAll(1500 * time.Millisecond),
	})
	slow := make(chan submitResult, 1)
	go func() { slow <- submit(t, ts.base, `{"experiment":"classify","workload":"LU32"}`) }()
	deadline := time.Now().Add(3 * time.Second)
	for {
		depth, _, _ := ts.s.adm.snapshot()
		if depth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow job never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ts.cancel() // the SIGTERM path: the signal context cancels

	// /readyz must flip to 503 while the listener still accepts.
	deadline = time.Now().Add(3 * time.Second)
	for {
		resp, err := http.Get(ts.base + "/readyz")
		if err != nil {
			t.Fatalf("/readyz unreachable during drain: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped unready during drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Submissions during the drain get a typed rejection over live HTTP —
	// not a connection error. (A submission racing the readyz flip may
	// still be admitted; poll until the draining rejection is observed.)
	deadline = time.Now().Add(3 * time.Second)
	for {
		res := submit(t, ts.base, `{"experiment":"classify","workload":"LU32"}`)
		if res.status == http.StatusServiceUnavailable {
			if res.code != string(CodeDraining) {
				t.Fatalf("drain rejection code %q, want draining", res.code)
			}
			if res.retry == "" {
				t.Error("draining 503 without Retry-After")
			}
			break
		}
		if res.status != http.StatusOK {
			t.Fatalf("submission during drain: %d/%s", res.status, res.code)
		}
		if time.Now().After(deadline) {
			t.Fatal("draining rejection never observed")
		}
	}

	// The in-flight job finishes cleanly within the drain deadline...
	if r := <-slow; r.status != http.StatusOK {
		t.Fatalf("in-flight job during drain: %d %s", r.status, r.body)
	}
	// ...and the drain reports clean.
	select {
	case err := <-ts.runErr:
		ts.runErr <- err
		if err != nil {
			t.Fatalf("graceful drain returned %v", err)
		}
	case <-time.After(25 * time.Second):
		t.Fatal("drain hung")
	}
	// After the drain the listener is down.
	if _, err := http.Get(ts.base + "/readyz"); err == nil {
		t.Error("listener still accepting after drain completed")
	}
}

// TestReadinessIsPerServer: each server's /readyz answers from its own
// state, so draining one server leaves another in the same process ready.
func TestReadinessIsPerServer(t *testing.T) {
	a := startTestServer(t, Config{})
	b := startTestServer(t, Config{})
	if err := a.drain(t); err != nil {
		t.Fatalf("server a drain: %v", err)
	}
	if resp, _ := get(t, b.base+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("server b /readyz = %d after server a drained, want 200", resp.StatusCode)
	}
}

// TestDebugRoutes: the serving port answers the introspection routes
// itself — the obs registry as Prometheus text at /metrics, liveness at
// /healthz and the pprof suite under /debug/pprof/ — and serves no JSON
// copy of the registry and no expvar.
func TestDebugRoutes(t *testing.T) {
	ts := startTestServer(t, Config{})
	obs.Default.Counter("serve.debug_test.pings").Inc()

	resp, body := get(t, ts.base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	if !strings.Contains(body, "\nuselessmiss_serve_debug_test_pings_total ") {
		t.Errorf("/metrics missing the registry counter:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE uselessmiss_serve_debug_test_pings_total counter\n") {
		t.Error("/metrics missing the counter's TYPE line")
	}

	if resp, body := get(t, ts.base+"/healthz"); resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		if resp, _ := get(t, ts.base+path); resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d, want 200", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/metrics.json", "/debug/vars"} {
		if resp, _ := get(t, ts.base+path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", path, resp.StatusCode)
		}
	}
}

// get fetches url and returns the response with its body read.
func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp, string(body)
}

// TestForcedDrainCancelsJobs: a job still running at the drain deadline is
// force-canceled with a typed error, and Run reports the forced drain as
// ErrDrainForced (exit 3).
func TestForcedDrainCancelsJobs(t *testing.T) {
	ts := startTestServer(t, Config{
		DrainTimeout: 150 * time.Millisecond,
		wrap:         stallAll(1500 * time.Millisecond),
	})
	slow := make(chan submitResult, 1)
	go func() { slow <- submit(t, ts.base, `{"experiment":"classify","workload":"LU32"}`) }()
	deadline := time.Now().Add(3 * time.Second)
	for {
		depth, _, _ := ts.s.adm.snapshot()
		if depth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	err := ts.drain(t)
	if !errors.Is(err, ErrDrainForced) {
		t.Fatalf("forced drain returned %v, want ErrDrainForced", err)
	}
	r := <-slow
	if r.status != http.StatusServiceUnavailable || r.code != string(CodeCanceled) {
		t.Fatalf("force-canceled job got %d/%s, want 503/canceled", r.status, r.code)
	}
	if got := ts.s.forced.Load(); got != 1 {
		t.Errorf("forced count = %d, want 1", got)
	}
}

// TestInjectedFaultIsTyped502: an always-faulting reader surfaces as a 502
// "fault" after one run — a job's output is a pure function of its input,
// so nothing is retried.
func TestInjectedFaultIsTyped502(t *testing.T) {
	var runs atomic.Int64
	ts := startTestServer(t, Config{
		wrap: func(r trace.Reader) trace.Reader {
			runs.Add(1)
			return fault.ErrorAfter(r, 50, nil)
		},
	})
	res := submit(t, ts.base, `{"experiment":"classify","workload":"LU32"}`)
	if res.status != http.StatusBadGateway || res.code != string(CodeFault) {
		t.Fatalf("got %d/%s, want 502/fault", res.status, res.code)
	}
	var env errorEnvelope
	if err := json.Unmarshal(res.body, &env); err != nil {
		t.Fatal(err)
	}
	if !env.Error.Retryable {
		t.Error("fault not marked retryable")
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("job read its trace %d times, want 1", n)
	}
}

// TestDeadlineIsTyped504: a spec deadline shorter than the job surfaces as
// 504 deadline_exceeded.
func TestDeadlineIsTyped504(t *testing.T) {
	ts := startTestServer(t, Config{wrap: stallAll(700 * time.Millisecond)})
	res := submit(t, ts.base, `{"experiment":"classify","workload":"LU32","timeout_ms":100}`)
	if res.status != http.StatusGatewayTimeout || res.code != string(CodeTimeout) {
		t.Fatalf("got %d/%s, want 504/deadline_exceeded", res.status, res.code)
	}
}

// TestChaosLifecycleLeakFree is the acceptance run: ≥100 concurrent jobs
// across tenants against a server whose job readers fault (every third
// fails after 200 refs, every fifth is slowed), then a drain — every
// response typed, every clean table bit-identical to the offline bytes,
// counters consistent (on the server and as the live /v1/stats serves
// them), replayed refs growing, and no goroutine or slot leaks. Run under
// -race by make serve-check.
func TestChaosLifecycleLeakFree(t *testing.T) {
	if testing.Short() {
		t.Skip("hundred-job lifecycle")
	}
	base := runtime.NumGoroutine()

	var readers, faulted atomic.Int64
	ts := startTestServer(t, Config{
		QueueDepth: 256,
		TenantCap:  64,
		wrap: func(r trace.Reader) trace.Reader {
			n := readers.Add(1)
			if n%3 == 0 {
				faulted.Add(1)
				r = fault.ErrorAfter(r, 200, nil)
			}
			if n%5 == 0 {
				r = fault.Stall(r, 20000, time.Millisecond)
			}
			return r
		},
	})
	want := offlineClassify(t, "LU32", 64, "all")
	before := getStats(t, ts.base)

	const jobs = 120
	var wg sync.WaitGroup
	results := make([]submitResult, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := fmt.Sprintf(`{"experiment":"classify","workload":"LU32","tenant":"t%d"}`, i%4)
			results[i] = submit(t, ts.base, spec)
		}(i)
	}
	wg.Wait()

	okCount, faultCount := 0, 0
	for i, r := range results {
		switch r.status {
		case http.StatusOK:
			okCount++
			if !bytes.Equal(r.body, want) {
				t.Fatalf("job %d: clean table differs from offline bytes", i)
			}
		case http.StatusBadGateway:
			faultCount++
			if r.code != string(CodeFault) {
				t.Errorf("job %d: 502 with code %q", i, r.code)
			}
		case http.StatusTooManyRequests:
			if r.code != string(CodeOverload) {
				t.Errorf("job %d: 429 with code %q", i, r.code)
			}
		case http.StatusServiceUnavailable:
			if r.code != string(CodeCanceled) {
				t.Errorf("job %d: 503 with code %q", i, r.code)
			}
		default:
			t.Errorf("job %d: unexpected status %d code %q", i, r.status, r.code)
		}
	}
	if okCount == 0 {
		t.Error("no job succeeded under chaos")
	}
	if faultCount == 0 {
		t.Error("injected faults never surfaced")
	}
	if n := faulted.Load(); int64(faultCount) != n {
		t.Errorf("%d faulted readers surfaced as %d 502s, want one each", n, faultCount)
	}

	// Counter consistency: everything admitted was processed.
	admitted, completed, failed := ts.s.admitted.Load(), ts.s.completed.Load(), ts.s.failed.Load()
	if admitted != completed+failed {
		t.Errorf("admitted %d != completed %d + failed %d", admitted, completed, failed)
	}
	if depth, tenants, _ := ts.s.adm.snapshot(); depth != 0 || len(tenants) != 0 {
		t.Errorf("admission slots leaked: depth %d tenants %v", depth, tenants)
	}
	after := getStats(t, ts.base)
	if after.Jobs.Admitted != admitted || after.Jobs.Completed != completed || after.Jobs.Failed != failed {
		t.Errorf("/v1/stats jobs admitted/completed/failed = %d/%d/%d, server counters %d/%d/%d",
			after.Jobs.Admitted, after.Jobs.Completed, after.Jobs.Failed, admitted, completed, failed)
	}
	if after.Queue.Depth != 0 {
		t.Errorf("/v1/stats queue depth = %d after every job answered", after.Queue.Depth)
	}
	if after.Refs.Driven <= before.Refs.Driven {
		t.Errorf("/v1/stats refs driven %d -> %d across %d jobs, want growth",
			before.Refs.Driven, after.Refs.Driven, jobs)
	}

	if err := ts.drain(t); err != nil {
		t.Fatalf("drain after chaos returned %v", err)
	}
	waitForGoroutines(t, base)
}

// servedStats is the slice of the /v1/stats JSON the chaos test reads,
// keyed by the wire names rather than by the server's own reply type.
type servedStats struct {
	Queue struct {
		Depth int `json:"depth"`
	} `json:"queue"`
	Jobs struct {
		Admitted  uint64 `json:"admitted"`
		Completed uint64 `json:"completed"`
		Failed    uint64 `json:"failed"`
	} `json:"jobs"`
	Refs struct {
		Driven uint64 `json:"driven"`
	} `json:"refs"`
}

// getStats reads the live server's /v1/stats.
func getStats(t *testing.T, base string) servedStats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d", resp.StatusCode)
	}
	var st servedStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /v1/stats: %v", err)
	}
	return st
}

// waitForGoroutines polls until the goroutine count drops back to at most
// base, tolerating scheduler lag.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
