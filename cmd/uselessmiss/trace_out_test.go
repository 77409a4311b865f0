package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

// perfettoTrace is the trace_event JSON container -trace-out writes.
type perfettoTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// loadPerfetto parses a -trace-out file.
func loadPerfetto(t *testing.T, path string) perfettoTrace {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	var tr perfettoTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return tr
}

// TestTraceOutPerfettoValid drives a file-backed fig5 run with the span
// recorder on and checks the exported trace is a loadable trace_event
// stream covering every pipeline layer: the experiment root, the sweep
// cells, the trace drive, the fused level sweeps and the tracestore
// segment reads.
func TestTraceOutPerfettoValid(t *testing.T) {
	packed := packLU32(t)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	runOut(t, "fig5", "-workloads", "LU32", "-j", "1",
		"-trace-file", "LU32="+packed, "-trace-out", tracePath)

	tr := loadPerfetto(t, tracePath)
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	threads := map[int]string{}
	ops := map[string]int{}
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				name, _ := ev.Args["name"].(string)
				threads[ev.Tid] = name
			}
		case "X":
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Errorf("span %s has negative ts/dur: ts=%v dur=%v", ev.Name, ev.Ts, ev.Dur)
			}
			ops[ev.Name]++
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}

	// Every span event must land on a named track.
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			if _, ok := threads[ev.Tid]; !ok {
				t.Fatalf("span %s on tid %d has no thread_name metadata", ev.Name, ev.Tid)
			}
		}
	}

	// The acceptance bar: at least these four instrumented layers show up
	// in one run (plus the driver root and the replay cells).
	for _, want := range []string{
		"experiment", "cell.replay", "sweep.cell", "trace.drive",
		"fused.level_sweep", "tracestore.segment_io",
	} {
		if ops[want] == 0 {
			t.Errorf("no %q spans in trace (ops seen: %v)", want, ops)
		}
	}

	// Level sweeps carry their grid attributes.
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" && ev.Name == "fused.level_sweep" {
			if _, ok := ev.Args["block"]; !ok {
				t.Errorf("fused.level_sweep span missing block attr: %v", ev.Args)
			}
			break
		}
	}
}

// TestTraceOutGoldenMatrix proves recording is an observer: with
// -trace-out on, fig5's stdout stays byte-identical at every combination
// of sweep parallelism and fusion. Fused is the pinned
// invocation, whose one replay per cell classifies all three block sizes,
// and must match the committed golden. Unfused splits the block sweep into
// one invocation per block size, so no replay is shared across block
// sizes, and each must match its own run without the recorder.
func TestTraceOutGoldenMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is not short")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "fig5.txt"))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	base := []string{"fig5", "-workloads", "LU32,JACOBI"}
	type sweep struct{ blocks, want string }
	fused := []sweep{{"8,64,512", string(golden)}}
	var unfused []sweep
	for _, b := range []string{"8", "64", "512"} {
		unfused = append(unfused, sweep{b, runOut(t, append(append([]string{}, base...), "-blocks", b, "-j", "1")...)})
	}
	for _, j := range []string{"1", "8"} {
		for _, isFused := range []bool{true, false} {
			name := fmt.Sprintf("j%s_fused%v", j, isFused)
			sweeps := unfused
			if isFused {
				sweeps = fused
			}
			t.Run(name, func(t *testing.T) {
				for _, sw := range sweeps {
					tracePath := filepath.Join(t.TempDir(), "trace.json")
					got := runOut(t, append(append([]string{}, base...),
						"-blocks", sw.blocks, "-j", j, "-trace-out", tracePath)...)
					if got != sw.want {
						t.Errorf("fig5 -blocks %s output with -trace-out differs at %s", sw.blocks, name)
					}
					if st, err := os.Stat(tracePath); err != nil || st.Size() == 0 {
						t.Errorf("trace file missing or empty at %s -blocks %s: %v", name, sw.blocks, err)
					}
				}
			})
		}
	}
}

// TestSpanLogJSONL checks the -span-log export: a schema header line whose
// span count matches the body, then one well-formed JSON object per span.
func TestSpanLogJSONL(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "spans.jsonl")
	runOut(t, "fig5", "-workloads", "JACOBI", "-blocks", "64",
		"-j", "2", "-span-log", logPath)

	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("span log is empty")
	}
	var hdr struct {
		Schema string `json:"schema"`
		Tracks int    `json:"tracks"`
		Spans  int    `json:"spans"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("bad header line: %v", err)
	}
	if hdr.Schema != "uselessmiss/spans/v1" {
		t.Fatalf("header schema = %q", hdr.Schema)
	}
	body := 0
	for sc.Scan() {
		var line struct {
			Track string `json:"track"`
			Op    string `json:"op"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad span line %d: %v", body+1, err)
		}
		if line.Track == "" || line.Op == "" {
			t.Fatalf("span line %d missing track/op: %s", body+1, sc.Text())
		}
		body++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if body != hdr.Spans {
		t.Errorf("header says %d spans, body has %d", hdr.Spans, body)
	}
	if hdr.Tracks < 2 {
		t.Errorf("expected at least the main track and a worker track, got %d", hdr.Tracks)
	}
}

// TestProvenanceManifest checks the -provenance manifest: the captured
// argv, toolchain identity, trace-file digests, outcome and metrics delta.
func TestProvenanceManifest(t *testing.T) {
	packed := packLU32(t)
	provPath := filepath.Join(t.TempDir(), "prov.json")
	runOut(t, "fig5", "-workloads", "LU32", "-blocks", "64",
		"-trace-file", "LU32="+packed, "-provenance", provPath)

	data, err := os.ReadFile(provPath)
	if err != nil {
		t.Fatal(err)
	}
	var m provenanceManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Schema != ProvenanceSchema {
		t.Errorf("schema = %q, want %q", m.Schema, ProvenanceSchema)
	}
	if len(m.Argv) == 0 || m.Argv[0] != "fig5" {
		t.Errorf("argv = %v, want to start with fig5", m.Argv)
	}
	if !strings.Contains(strings.Join(m.Argv, " "), "LU32="+packed) {
		t.Errorf("argv does not carry the trace-file binding: %v", m.Argv)
	}
	if m.GoVersion != runtime.Version() {
		t.Errorf("go_version = %q, want %q", m.GoVersion, runtime.Version())
	}
	if m.GOMAXPROCS < 1 {
		t.Errorf("gomaxprocs = %d", m.GOMAXPROCS)
	}
	if m.ExitStatus != 0 || m.Error != "" {
		t.Errorf("exit_status = %d, error = %q; want a clean run", m.ExitStatus, m.Error)
	}
	if m.WallSeconds <= 0 {
		t.Errorf("wall_seconds = %v", m.WallSeconds)
	}
	if len(m.TraceFiles) != 1 || m.TraceFiles[0].Workload != "LU32" {
		t.Fatalf("trace_files = %+v, want the LU32 binding", m.TraceFiles)
	}
	tf := m.TraceFiles[0]
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(tf.TOCSHA256) {
		t.Errorf("toc_sha256 = %q, want 64 hex chars", tf.TOCSHA256)
	}
	if tf.Refs == 0 || tf.Bytes == 0 || tf.Path != packed {
		t.Errorf("trace file entry incomplete: %+v", tf)
	}
	if m.Metrics.Deterministic.Counters[obs.NameDriveRefs] == 0 {
		t.Errorf("metrics delta records no replayed refs: %v", m.Metrics.Deterministic.Counters)
	}
}

// TestProvenanceManifestOnError checks the manifest still lands when the
// run fails, carrying the mapped exit status and the error text.
func TestProvenanceManifestOnError(t *testing.T) {
	provPath := filepath.Join(t.TempDir(), "prov.json")
	var sb strings.Builder
	err := run([]string{"fig5", "-workloads", "NOSUCH", "-provenance", provPath}, &sb)
	if err == nil {
		t.Fatal("expected an unknown-workload error")
	}
	data, readErr := os.ReadFile(provPath)
	if readErr != nil {
		t.Fatalf("manifest not written on failure: %v", readErr)
	}
	var m provenanceManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != exitErr {
		t.Errorf("exit_status = %d, want %d", m.ExitStatus, exitErr)
	}
	if m.Error == "" {
		t.Error("manifest has no error text for a failed run")
	}
}
