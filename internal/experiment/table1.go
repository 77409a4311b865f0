package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// table1Paper holds the counts the paper's Table 1 reports, for side-by-side
// comparison: misses by classification scheme for the large data sets at
// 32- and 1024-byte blocks.
var table1Paper = map[string]map[int][3][3]uint64{
	// [scheme: ours, eggers, torrellas] x [true, cold, false]
	"LU200": {
		32:   {{5769, 110955, 11839}, {2845, 110955, 14763}, {597, 113812, 14154}},
		1024: {{7941, 5545, 79882}, {2558, 5545, 85265}, {183, 9827, 83358}},
	},
	"MP3D10000": {
		32:   {{188120, 46242, 31206}, {178206, 46242, 41120}, {177272, 52264, 36032}},
		1024: {{82125, 4058, 266245}, {67447, 4058, 280923}, {112562, 26011, 213855}},
	},
}

// table1Schemes are Table 1's classification schemes in column order.
var table1Schemes = []string{"ours", "eggers", "torrellas"}

// classifyScheme drives one scheme's fused classifier at every block size
// over one replay of r and returns the scheme's (true sharing, cold, false
// sharing) miss counts per geometry.
func classifyScheme(ctx context.Context, scheme string, r trace.Reader, procs int, geos []mem.Geometry) ([][3]uint64, error) {
	var counts []core.SharingCounts
	switch scheme {
	case "ours":
		f := core.NewFusedClassifier(procs, geos)
		if err := trace.DriveContext(ctx, r, f); err != nil {
			return nil, err
		}
		for _, c := range f.Finish() {
			counts = append(counts, c.Sharing())
		}
	case "eggers":
		e := core.NewFusedEggers(procs, geos)
		if err := trace.DriveContext(ctx, r, e); err != nil {
			return nil, err
		}
		counts = e.Finish()
	default:
		t := core.NewFusedTorrellas(procs, geos)
		if err := trace.DriveContext(ctx, r, t); err != nil {
			return nil, err
		}
		counts = t.Finish()
	}
	out := make([][3]uint64, len(counts))
	for i, c := range counts {
		out[i] = [3]uint64{c.True, c.Cold, c.False}
	}
	return out, nil
}

// Table1 regenerates the paper's Table 1: the number of true-sharing, cold
// and false-sharing misses under the three classifications, for the large
// data sets at block sizes of 32 and 1024 bytes. With Quick, the small data
// sets are used instead (and no paper reference column is available). Each
// (workload, scheme) pair is one sweep cell whose fused replay drives that
// scheme's classifier at both block sizes off a reader of its own, so a
// workload's three schemes replay concurrently.
func Table1(o Options) error {
	defer driverSpan("table1").End()
	defaults := []string{"LU200", "MP3D10000"}
	if o.Quick {
		defaults = []string{"LU32", "MP3D1000"}
	}
	names := o.workloads(defaults)
	blocks := o.blocks([]int{32, 1024})

	ws, err := getWorkloads(names)
	if err != nil {
		return err
	}
	geos := make([]mem.Geometry, len(blocks))
	for i, b := range blocks {
		g, err := mem.NewGeometry(b)
		if err != nil {
			return err
		}
		geos[i] = g
	}

	// One sweep cell per (workload, scheme): one pass over the trace drives
	// the scheme at both block sizes. Each cell reads the trace again, which
	// with the run-at-a-time segment decoder costs less than a core left
	// idle while one workload's three classifiers run back to back
	// (DESIGN.md §12).
	cache := o.traceCache()
	nS := len(table1Schemes)
	cells, err := mapCells(o, len(ws)*nS, func(ctx context.Context, i int) ([][3]uint64, error) {
		w, scheme := ws[i/nS], table1Schemes[i%nS]
		defer replaySpan(ctx, w.Name, scheme, 0).End()
		r, err := o.reader(ctx, cache, w.Name)
		if err != nil {
			return nil, err
		}
		return classifyScheme(ctx, scheme, r, w.Procs, geos)
	})
	if err != nil {
		return err
	}
	return renderTable1(o, ws, blocks, cells)
}

// renderTable1 writes Table 1 laid out workload-major: cells holds one
// entry per (workload, scheme) cell with one (true, cold, false) triple
// per block.
func renderTable1(o Options, ws []*workload.Workload, blocks []int, cells [][][3]uint64) error {
	fmt.Fprintln(o.Out, "Table 1: miss counts under the three classifications")
	fmt.Fprintln(o.Out)
	tb := report.NewTable("workload", "B", "class", "scheme", "misses", "paper")
	nS := len(table1Schemes)
	for wi, w := range ws {
		for bi, b := range blocks {
			classes := [3]string{"TS", "COLD", "FS"}
			for ci, class := range classes {
				for si, scheme := range table1Schemes {
					paper := ""
					if ref, ok := table1Paper[w.Name][b]; ok {
						paper = fmt.Sprint(ref[si][ci])
					}
					tb.Rowf(w.Name, b, class, scheme, cells[wi*nS+si][bi][ci], paper)
				}
			}
		}
	}
	if o.CSV {
		return tb.CSV(o.Out)
	}
	tb.Fprint(o.Out)
	fmt.Fprintln(o.Out)
	fmt.Fprintln(o.Out, "Eggers' scheme can only under-count true sharing relative to ours;")
	fmt.Fprintln(o.Out, "Torrellas' counts many sharing misses as cold (word-grain first touch).")
	return nil
}
