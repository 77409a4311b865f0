package experiment

// Driver-level shard invariance: every plumbed experiment must render
// byte-identical output with the per-cell classification serial, sharded,
// and sharded on top of the parallel sweep — the end-to-end form of the
// property the differential suites check per consumer.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tracestore"
	"repro/internal/workload"
)

// renderAt runs one driver with the given parallelism and shard count.
func renderAt(t *testing.T, run func(Options) error, par, shards int) string {
	t.Helper()
	var sb strings.Builder
	o := Options{Out: &sb, Quick: true, Workloads: []string{"LU32", "JACOBI"}, Parallelism: par, Shards: shards}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestDriversShardInvariant(t *testing.T) {
	drivers := []struct {
		name string
		run  func(Options) error
	}{
		{"fig5", func(o Options) error { o.Blocks = []int{16, 64}; return Fig5(o) }},
		{"fig6", func(o Options) error { return Fig6(o, 64) }},
		{"table1", Table1},
		{"large", Large},
		{"finite", func(o Options) error { return FiniteSweep(o, 64, 4) }},
	}
	for _, d := range drivers {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			want := renderAt(t, d.run, 1, 0)
			for _, cfg := range []struct{ par, shards int }{
				{1, 1}, {1, 8}, {4, 8}, {1, 64},
			} {
				if got := renderAt(t, d.run, cfg.par, cfg.shards); got != want {
					t.Errorf("par=%d shards=%d output differs:\n got:\n%s\nwant:\n%s",
						cfg.par, cfg.shards, got, want)
				}
			}
		})
	}
}

// TestFiniteSweepShardedPackedFile pins the finite driver to whole-stream
// readers: its partition is keyed by cache set, not by the block residue
// the packed-trace segment skip filters on, so a file-backed run at a shard
// count that is not a power of two must still render the serial bytes. The
// tiny segments span few blocks each, so a block-keyed skip would drop
// references a shard owns.
func TestFiniteSweepShardedPackedFile(t *testing.T) {
	w, err := workload.Get("LU32")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "LU32.umt")
	if _, err := w.PackFile(path, tracestore.WriterOptions{SegmentRefs: 16}); err != nil {
		t.Fatal(err)
	}
	files, err := OpenTraceFiles(map[string]string{"LU32": path})
	if err != nil {
		t.Fatal(err)
	}
	defer files.Close()
	render := func(shards int) string {
		var sb strings.Builder
		o := Options{Out: &sb, Workloads: []string{"LU32"}, Parallelism: 1, Shards: shards, TraceFiles: files}
		if err := FiniteSweep(o, 64, 4); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if want, got := render(1), render(3); got != want {
		t.Errorf("file-backed finite sweep at -shards 3 differs from serial:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestLargeShardedPackedFile pins the §7 driver's two-block cells to the
// coarser block size: each cell drives its B=64 and B=1024 simulators off
// one segment-skipping reader per shard, and the shards partition the
// blocks at B=1024, so the skip must be keyed on the 1024-byte geometry
// too. The tiny segments span few blocks each, so a skip keyed on the
// 64-byte geometry would drop references a shard owns at B=1024.
func TestLargeShardedPackedFile(t *testing.T) {
	w, err := workload.Get("LU32")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "LU32.umt")
	if _, err := w.PackFile(path, tracestore.WriterOptions{SegmentRefs: 16}); err != nil {
		t.Fatal(err)
	}
	files, err := OpenTraceFiles(map[string]string{"LU32": path})
	if err != nil {
		t.Fatal(err)
	}
	defer files.Close()
	render := func(shards int) string {
		var sb strings.Builder
		o := Options{Out: &sb, Workloads: []string{"LU32"}, Parallelism: 1, Shards: shards, TraceFiles: files}
		if err := Large(o); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	want := render(1)
	for _, shards := range []int{3, 8} {
		if got := render(shards); got != want {
			t.Errorf("file-backed large at -shards %d differs from serial:\n got:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}

// TestLargeKeepGoingFailsBothBlocks: a §7 cell drives one protocol at both
// block sizes, so a cell whose trace cannot be read marks both of that
// protocol's rows FAILED, and the other workload's rows still render.
func TestLargeKeepGoingFailsBothBlocks(t *testing.T) {
	w, err := workload.Get("LU32")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "LU32.umt")
	if _, err := w.PackFile(path, tracestore.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff // inside the segment data: a checksum failure on read
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	files, err := OpenTraceFiles(map[string]string{"LU32": path})
	if err != nil {
		t.Fatal(err)
	}
	defer files.Close()
	var sb strings.Builder
	o := Options{Out: &sb, Workloads: []string{"LU32", "JACOBI"}, Protocols: []string{"MIN", "OTF"},
		Parallelism: 1, KeepGoing: true, TraceFiles: files}
	if err := Large(o); !errors.Is(err, ErrPartial) {
		t.Fatalf("Large = %v, want a partial-result error", err)
	}
	out := sb.String()
	for _, b := range []int{64, 1024} {
		for _, proto := range o.Protocols {
			failed := regexp.MustCompile(fmt.Sprintf(`(?m)^LU32 +%d +%s +FAILED`, b, proto))
			ok := regexp.MustCompile(fmt.Sprintf(`(?m)^JACOBI +%d +%s +[0-9]`, b, proto))
			if !failed.MatchString(out) || !ok.MatchString(out) {
				t.Errorf("B=%d %s: want LU32 FAILED and JACOBI rendered:\n%s", b, proto, out)
			}
		}
	}
}

// TestTable1KeepGoingFailsWorkloadRows: a workload whose trace cannot be
// read marks both of its Table 1 block rows FAILED, names each in the
// partial-report footer, and the other workload's rows still render.
func TestTable1KeepGoingFailsWorkloadRows(t *testing.T) {
	w, err := workload.Get("LU32")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "LU32.umt")
	if _, err := w.PackFile(path, tracestore.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff // inside the segment data: a checksum failure on read
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	files, err := OpenTraceFiles(map[string]string{"LU32": path})
	if err != nil {
		t.Fatal(err)
	}
	defer files.Close()
	var sb strings.Builder
	o := Options{Out: &sb, Workloads: []string{"LU32", "JACOBI"}, Parallelism: 1, KeepGoing: true, TraceFiles: files}
	if err := Table1(o); !errors.Is(err, ErrPartial) {
		t.Fatalf("Table1 = %v, want a partial-result error", err)
	}
	out := sb.String()
	for _, b := range []int{32, 1024} {
		failed := regexp.MustCompile(fmt.Sprintf(`(?m)^LU32 +%d +FAILED *$`, b))
		ok := regexp.MustCompile(fmt.Sprintf(`(?m)^JACOBI +%d +FS +torrellas +[0-9]`, b))
		if !failed.MatchString(out) || !ok.MatchString(out) {
			t.Errorf("B=%d: want LU32 FAILED and JACOBI rendered:\n%s", b, out)
		}
	}
	footer := regexp.MustCompile(`(?m)^PARTIAL: 2 of the sweep cells failed; failed cells are marked FAILED\n` +
		`  failed LU32 B=32: (.*payload checksum mismatch.*)\n` +
		`  failed LU32 B=1024: (.*payload checksum mismatch.*)\n`)
	m := footer.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("want a two-line PARTIAL footer naming both LU32 blocks:\n%s", out)
	}
	if m[1] != m[2] {
		t.Errorf("the two LU32 rows name different failures: %q and %q", m[1], m[2])
	}
}

// TestShardsPerCell pins the goroutine-budget composition rule: the
// effective per-cell shard count shrinks as the sweep parallelism grows, so
// cells x shards stays within max(GOMAXPROCS, Parallelism, Shards).
func TestShardsPerCell(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	cases := []struct {
		par, shards, want int
	}{
		{0, 0, 1},                             // default: serial cells
		{1, 1, 1},                             // explicit serial
		{8, 0, 1},                             // parallel sweep, no sharding
		{1, 8, 8},                             // all budget to one cell
		{8, 8, min(8, max(1, max(8, gmp)/8))}, // split between sweep and shards
		{16, 4, 1},                            // sweep saturates the budget
	}
	for _, tc := range cases {
		o := Options{Parallelism: tc.par, Shards: tc.shards}
		if got := o.shardsPerCell(); got != tc.want {
			t.Errorf("par=%d shards=%d: shardsPerCell() = %d, want %d",
				tc.par, tc.shards, got, tc.want)
		}
		// The budget bound itself: concurrent cells x per-cell shards never
		// exceeds the largest of GOMAXPROCS, Parallelism and Shards.
		par := tc.par
		if par <= 0 {
			par = gmp
		}
		budget := max(gmp, max(tc.par, tc.shards))
		if got := o.shardsPerCell(); par*got > budget && got > 1 {
			t.Errorf("par=%d shards=%d: %d cells x %d shards exceeds budget %d",
				tc.par, tc.shards, par, got, budget)
		}
	}
}
