package serve

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/load"
	"repro/internal/trace"
)

// TestLoadAgainstChaosServer composes the two halves of the chaos suite:
// the invitro-style generator offers seeded load to a server whose every
// fourth job reader faults, and the report must show real throughput
// (jobs/s, refs/s from the /v1/stats delta) alongside typed failures —
// nothing untyped, nothing hung.
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
	rep, err := load.Run(context.Background(), load.Config{
		BaseURL:  ts.base,
		Mode:     "step",
		RPS:      20,
		StepRPS:  20,
		Duration: 2 * time.Second,
		Dist:     "exponential",
		Seed:     3,
		Bodies: [][]byte{
			[]byte(`{"experiment":"classify","workload":"LU32","tenant":"alpha"}`),
			[]byte(`{"experiment":"classify","workload":"LU32","tenant":"beta"}`),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 || rep.OK == 0 {
		t.Fatalf("load run made no progress: sent %d ok %d", rep.Sent, rep.OK)
	}
	if rep.RefsPerSec <= 0 {
		t.Errorf("refs/s = %v, want > 0", rep.RefsPerSec)
	}
	// Every non-200 must carry a typed code from the server's contract.
	valid := map[string]bool{
		string(CodeFault): true, string(CodeOverload): true,
		string(CodeDraining): true, string(CodeCanceled): true,
		string(CodeTimeout): true,
	}
	nonOK := 0
	for code, n := range rep.Codes {
		nonOK += n
		if !valid[code] {
			t.Errorf("untyped failure code %q (%d times)", code, n)
		}
	}
	if rep.Sent != rep.OK+nonOK {
		t.Errorf("sent %d != ok %d + failed %d", rep.Sent, rep.OK, nonOK)
	}
	// Every fourth reader faults: over a few dozen jobs some must have
	// surfaced as typed faults.
	if rep.Codes[string(CodeFault)] == 0 {
		t.Error("injected faults never surfaced during the load run")
	}
	if err := ts.drain(t); err != nil {
		t.Fatalf("drain after load returned %v", err)
	}
}
