package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/trace"
)

// TestLoadAgainstChaosServer offers seeded open-loop load — exponential
// inter-arrivals at a rate stepping 20, 40, 60, 80 jobs/s over two seconds
// — to a server whose every fourth job reader faults. The run must show
// real throughput (jobs answered 200, refs/s from the /v1/stats delta)
// alongside typed failures: nothing untyped, nothing lost, nothing hung.
func TestLoadAgainstChaosServer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load run")
	}
	var readers atomic.Int64
	ts := startTestServer(t, Config{
		QueueDepth: 128,
		TenantCap:  64,
		wrap: func(r trace.Reader) trace.Reader {
			if readers.Add(1)%4 == 0 {
				return fault.ErrorAfter(r, 500, nil)
			}
			return r
		},
	})
	bodies := [][]byte{
		[]byte(`{"experiment":"classify","workload":"LU32","tenant":"alpha"}`),
		[]byte(`{"experiment":"classify","workload":"LU32","tenant":"beta"}`),
	}
	const (
		duration = 2 * time.Second
		period   = duration / 4
		stepRPS  = 20.0
	)
	client := &http.Client{Timeout: 30 * time.Second}
	before := getStats(t, ts.base)

	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		sent, ok  int
		codes     = make(map[string]int)
		transport []error
	)
	rng := rand.New(rand.NewSource(3))
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		rate := stepRPS * float64(1+int(elapsed/period))
		wait := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if elapsed+wait >= duration {
			break
		}
		time.Sleep(wait)
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			status, code, err := offer(client, ts.base, body)
			mu.Lock()
			defer mu.Unlock()
			sent++
			switch {
			case err != nil:
				transport = append(transport, err)
			case status == http.StatusOK:
				ok++
			default:
				codes[code]++
			}
		}(bodies[i%len(bodies)])
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := getStats(t, ts.base)

	for _, err := range transport {
		t.Errorf("transport failure under load: %v", err)
	}
	if sent == 0 || ok == 0 {
		t.Fatalf("load run made no progress: sent %d ok %d", sent, ok)
	}
	if refsPerSec := float64(after.Refs.Driven-before.Refs.Driven) / elapsed.Seconds(); refsPerSec <= 0 {
		t.Errorf("refs/s = %v, want > 0", refsPerSec)
	}
	// Every non-200 must carry a typed code from the server's contract.
	valid := map[string]bool{
		string(CodeFault): true, string(CodeOverload): true,
		string(CodeDraining): true, string(CodeCanceled): true,
		string(CodeTimeout): true,
	}
	nonOK := 0
	for code, n := range codes {
		nonOK += n
		if !valid[code] {
			t.Errorf("untyped failure code %q (%d times)", code, n)
		}
	}
	if sent != ok+nonOK+len(transport) {
		t.Errorf("sent %d != ok %d + failed %d + transport %d", sent, ok, nonOK, len(transport))
	}
	// Every fourth reader faults: over a few dozen jobs some must have
	// surfaced as typed faults.
	if codes[string(CodeFault)] == 0 {
		t.Error("injected faults never surfaced during the load run")
	}
	if err := ts.drain(t); err != nil {
		t.Fatalf("drain after load returned %v", err)
	}
}

// offer posts one JSON job body and returns the HTTP status and, for a
// non-200, the envelope's error code ("unknown" when there is none). It
// reports rather than fails, so load goroutines may call it.
func offer(client *http.Client, base string, body []byte) (status int, code string, err error) {
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, "", err
	}
	var env errorEnvelope
	code = "unknown"
	if json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error.Code != "" {
		code = string(env.Error.Code)
	}
	return resp.StatusCode, code, nil
}
