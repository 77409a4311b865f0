package experiment

// Driver-level fused differential: the fused drivers (Fig. 5, Fig. 6,
// Table 1) must render byte-identical reports to the same grid computed
// cell by cell with the per-cell reference classifiers and simulators, at
// every parallelism — the end-to-end consequence of the fused classifiers'
// bit-for-bit equivalence.

import (
	"bytes"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/workload"
)

// fusedDrivers enumerates the fused drivers, each with a reference that
// renders its report from one replay per grid cell through the per-cell
// references: core.Classify, ClassifyEggers and ClassifyTorrellas per
// (workload, block), and runProtocols per workload.
var fusedDrivers = []struct {
	name string
	run  func(Options) error
	ref  func(t *testing.T, o Options, ws []*workload.Workload) error
}{
	{"Fig5", func(o Options) error { o.Blocks = []int{8, 64, 1024}; return Fig5(o) },
		func(t *testing.T, o Options, ws []*workload.Workload) error {
			blocks := []int{8, 64, 1024}
			var cells []fig5Cell
			for _, w := range ws {
				for _, b := range blocks {
					counts, refs, err := core.Classify(w.Reader(), mem.MustGeometry(b))
					if err != nil {
						t.Fatal(err)
					}
					cells = append(cells, fig5Cell{counts: counts, refs: refs})
				}
			}
			return renderFig5(o, ws, blocks, cells)
		}},
	{"Fig6", func(o Options) error { return Fig6(o, 64) },
		func(t *testing.T, o Options, ws []*workload.Workload) error {
			var cells []coherence.Result
			for _, w := range ws {
				res, err := runProtocols(w, mem.MustGeometry(64), o.Protocols)
				if err != nil {
					t.Fatal(err)
				}
				cells = append(cells, res...)
			}
			return renderFig6(o, 64, ws, o.Protocols, cells)
		}},
	{"Table1", Table1,
		func(t *testing.T, o Options, ws []*workload.Workload) error {
			blocks := []int{32, 1024}
			var cells [][][3]uint64 // per (workload, scheme), per block
			for _, w := range ws {
				ours, eggers, torr := make([][3]uint64, len(blocks)), make([][3]uint64, len(blocks)), make([][3]uint64, len(blocks))
				for bi, b := range blocks {
					g := mem.MustGeometry(b)
					c, _, err := core.Classify(w.Reader(), g)
					if err != nil {
						t.Fatal(err)
					}
					ours[bi] = [3]uint64{c.PTS, c.Cold(), c.PFS}
					e, _, err := core.ClassifyEggers(w.Reader(), g)
					if err != nil {
						t.Fatal(err)
					}
					eggers[bi] = [3]uint64{e.True, e.Cold, e.False}
					tc, _, err := core.ClassifyTorrellas(w.Reader(), g)
					if err != nil {
						t.Fatal(err)
					}
					torr[bi] = [3]uint64{tc.True, tc.Cold, tc.False}
				}
				cells = append(cells, ours, eggers, torr)
			}
			return renderTable1(o, ws, blocks, cells)
		}},
}

// TestFusedDriversMatchPerCell: for every fused driver, every -j renders
// exactly the report the per-cell references give.
func TestFusedDriversMatchPerCell(t *testing.T) {
	for _, d := range fusedDrivers {
		t.Run(d.name, func(t *testing.T) {
			var want bytes.Buffer
			o := boundedOpts(&want, 1)
			ws, err := getWorkloads(o.Workloads)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.ref(t, o, ws); err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 8} {
				var got bytes.Buffer
				if err := d.run(boundedOpts(&got, par)); err != nil {
					t.Fatalf("j=%d: %v", par, err)
				}
				if !bytes.Equal(want.Bytes(), got.Bytes()) {
					t.Errorf("j=%d output differs from the per-cell reference:\n%s\nvs\n%s",
						par, got.String(), want.String())
				}
			}
		})
	}
}
