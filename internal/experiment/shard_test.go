package experiment

// Driver-level shard invariance: every plumbed experiment must render
// byte-identical output with the per-cell classification serial, sharded,
// and sharded on top of the parallel sweep — the end-to-end form of the
// property the differential suites check per consumer.

import (
	"path/filepath"
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
