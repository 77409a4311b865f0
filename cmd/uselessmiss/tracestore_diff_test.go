package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/trace"
	"repro/internal/workload"
)

// packLU32 packs one LU32 trace through the CLI and returns its path.
func packLU32(t *testing.T, extra ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "LU32.umt")
	args := append([]string{"trace", "pack", "-workload", "LU32", "-o", path}, extra...)
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("trace pack: %v", err)
	}
	return path
}

// runOut runs one CLI invocation and returns its rendered output.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return sb.String()
}

// TestTracestoreDifferentialFig5 is the out-of-core equivalence suite for
// the classification grid: replaying Fig. 5 from a packed trace file must
// be byte-for-byte identical to the in-memory replay at every combination
// of sweep parallelism and fusion. Fused replays the whole block sweep in
// one pass per cell; unfused runs one invocation per block size, so each
// cell replays a single geometry.
func TestTracestoreDifferentialFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("differential grid is not short")
	}
	packed := packLU32(t)
	// Each sweep is the -blocks argument of one invocation; nil keeps the
	// default sweep.
	fused := [][]string{nil}
	var unfused [][]string
	for _, b := range experiment.Fig5Blocks {
		unfused = append(unfused, []string{"-blocks", strconv.Itoa(b)})
	}
	want := map[string]string{}
	for _, sw := range append(fused, unfused...) {
		want[strings.Join(sw, " ")] = runOut(t, append([]string{"fig5", "-workloads", "LU32"}, sw...)...)
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
					args := append([]string{"fig5", "-workloads", "LU32"}, sw...)
					got := runOut(t, append(args, "-j", j, "-trace-file", "LU32="+packed)...)
					if w := want[strings.Join(sw, " ")]; got != w {
						t.Errorf("file-backed fig5 %v diverges from in-memory at %s:\n--- want\n%s\n--- got\n%s", sw, name, w, got)
					}
				}
			})
		}
	}
}

// TestTracestoreDifferentialTable1 runs the check over the Table 1 driver
// (three classification schemes at two block sizes off one fused pass).
// Fused compares the file-backed table with the in-memory one. Unfused
// checks it count for count against the per-cell references: one classify
// replay of the same packed file per block size.
func TestTracestoreDifferentialTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("differential grid is not short")
	}
	packed := packLU32(t)
	want := runOut(t, "table1", "-quick", "-workloads", "LU32")
	perCell := perCellTable1(t, packed)
	for _, isFused := range []bool{true, false} {
		name := fmt.Sprintf("fused%v", isFused)
		t.Run(name, func(t *testing.T) {
			args := []string{"table1", "-quick", "-workloads", "LU32",
				"-j", "8", "-trace-file", "LU32=" + packed}
			if isFused {
				if got := runOut(t, args...); got != want {
					t.Errorf("file-backed table1 diverges from in-memory at %s:\n--- want\n%s\n--- got\n%s", name, want, got)
				}
				return
			}
			got := map[string]string{}
			for _, line := range strings.Split(runOut(t, append(args, "-csv")...), "\n") {
				// CSV rows: workload,B,class,scheme,misses,paper.
				if f := strings.Split(line, ","); len(f) == 6 && f[0] == "LU32" {
					got[f[1]+" "+f[2]+" "+f[3]] = f[4]
				}
			}
			if len(got) != len(perCell) {
				t.Fatalf("file-backed table1 has %d rows, the per-cell references %d", len(got), len(perCell))
			}
			for k, w := range perCell {
				if got[k] != w {
					t.Errorf("B/class/scheme %s: file-backed table1 %q, per-cell classify %q", k, got[k], w)
				}
			}
		})
	}
}

// TestTracestoreDifferentialTable2 characterizes packed files: Table 2
// over LU32 and JACOBI bound with -trace-file must be byte-identical to the
// in-memory table, serially and on the parallel sweep.
func TestTracestoreDifferentialTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("differential grid is not short")
	}
	lu := packLU32(t)
	jacobi := filepath.Join(t.TempDir(), "JACOBI.umt")
	runOut(t, "trace", "pack", "-workload", "JACOBI", "-o", jacobi)
	want := runOut(t, "table2", "-workloads", "LU32,JACOBI")
	for _, j := range []string{"1", "8"} {
		t.Run("j"+j, func(t *testing.T) {
			got := runOut(t, "table2", "-workloads", "LU32,JACOBI", "-j", j,
				"-trace-file", "LU32="+lu, "-trace-file", "JACOBI="+jacobi)
			if got != want {
				t.Errorf("file-backed table2 diverges from in-memory at -j %s:\n--- want\n%s\n--- got\n%s", j, want, got)
			}
		})
	}
}

// perCellTable1 classifies the packed LU32 file once per Table 1 block size
// through the classify subcommand and maps each "B class scheme" row of
// Table 1 to its miss count: TS, COLD and FS are PTS, PC+CTS+CFS and PFS
// for our scheme, and TSM, COLD and FSM for the earlier two.
func perCellTable1(t *testing.T, packed string) map[string]string {
	t.Helper()
	rows := map[string]string{}
	for _, b := range []string{"32", "1024"} {
		m := map[string]uint64{} // "scheme class" -> misses
		for _, line := range strings.Split(runOut(t, "classify", "-trace", packed, "-block", b), "\n") {
			// Table rows: scheme class misses rate%; the header does not parse.
			if f := strings.Fields(line); len(f) == 4 {
				if n, err := strconv.ParseUint(f[2], 10, 64); err == nil {
					m[f[0]+" "+f[1]] = n
				}
			}
		}
		for class, n := range map[string]uint64{
			"TS ours": m["ours PTS"], "COLD ours": m["ours PC"] + m["ours CTS"] + m["ours CFS"], "FS ours": m["ours PFS"],
			"TS eggers": m["eggers TSM"], "COLD eggers": m["eggers COLD"], "FS eggers": m["eggers FSM"],
			"TS torrellas": m["torrellas TSM"], "COLD torrellas": m["torrellas COLD"], "FS torrellas": m["torrellas FSM"],
		} {
			rows[b+" "+class] = strconv.FormatUint(n, 10)
		}
	}
	return rows
}

// TestTracestoreDifferentialSegmentBoundaries re-runs the fig5 comparison
// against files packed with adversarial segment sizes: tiny power-of-two
// segments, a prime segment size (sync records straddle every boundary
// shape), and a single-segment file.
func TestTracestoreDifferentialSegmentBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("differential grid is not short")
	}
	want := runOut(t, "fig5", "-workloads", "LU32")
	for _, segRefs := range []string{"512", "769", "4194304"} {
		t.Run("segrefs"+segRefs, func(t *testing.T) {
			packed := packLU32(t, "-segment-refs", segRefs)
			got := runOut(t, "fig5", "-workloads", "LU32",
				"-j", "4", "-trace-file", "LU32="+packed)
			if got != want {
				t.Errorf("segment-refs=%s replay diverges from in-memory", segRefs)
			}
		})
	}
}

// TestTraceCLIRoundtrip exercises pack → info → cat: the text cat prints
// must match the text format of the generated stream byte for byte.
func TestTraceCLIRoundtrip(t *testing.T) {
	dir := t.TempDir()
	packed := filepath.Join(dir, "j.umt")
	cat := filepath.Join(dir, "j.cat")
	runOut(t, "trace", "pack", "-workload", "LU32", "-o", packed)
	runOut(t, "trace", "cat", "-o", cat, packed)
	w, err := workload.Get("LU32")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := trace.WriteText(&want, w.Reader()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(cat)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("trace cat output differs from the generated stream's text (%d vs %d bytes)", len(got), want.Len())
	}
	info := runOut(t, "trace", "info", packed)
	for _, want := range []string{"format version", "processors", "segments", "toc sha256"} {
		if !strings.Contains(info, want) {
			t.Errorf("trace info missing %q:\n%s", want, info)
		}
	}
}

// TestTraceFileFlagErrors covers the -trace-file flag's failure modes.
func TestTraceFileFlagErrors(t *testing.T) {
	var sb strings.Builder
	packed := packLU32(t)
	cases := [][]string{
		{"fig5", "-trace-file", "LU32"},                                              // no '='
		{"fig5", "-trace-file", "LU32=" + packed + ",LU32=" + packed},                // duplicate binding
		{"fig5", "-trace-file", "LU32=" + packed, "-trace-file", "LU32=" + packed},   // duplicate across repeats
		{"fig5", "-trace-file", "NOPE=" + packed},                                    // unknown workload
		{"fig5", "-trace-file", "LU32=" + filepath.Join(t.TempDir(), "missing.umt")}, // no such file
	}
	for _, args := range cases {
		if err := run(args, &sb); err == nil {
			t.Errorf("%v: error expected", args)
		}
	}
}

// TestTraceFileFlagRepeats: every repeat of -trace-file adds its bindings,
// so both workloads replay from their files (the provenance manifest lists
// every opened binding).
func TestTraceFileFlagRepeats(t *testing.T) {
	lu := packLU32(t)
	jacobi := filepath.Join(t.TempDir(), "JACOBI.umt")
	runOut(t, "trace", "pack", "-workload", "JACOBI", "-o", jacobi)
	provPath := filepath.Join(t.TempDir(), "prov.json")
	runOut(t, "fig5", "-workloads", "LU32,JACOBI", "-blocks", "64",
		"-trace-file", "LU32="+lu, "-trace-file", "JACOBI="+jacobi, "-provenance", provPath)

	data, err := os.ReadFile(provPath)
	if err != nil {
		t.Fatal(err)
	}
	var m provenanceManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	bound := map[string]string{}
	for _, tf := range m.TraceFiles {
		bound[tf.Workload] = tf.Path
	}
	if len(bound) != 2 || bound["LU32"] != lu || bound["JACOBI"] != jacobi {
		t.Fatalf("trace_files = %+v, want both the LU32 and the JACOBI binding", m.TraceFiles)
	}
}
