package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/sweep"
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

// table1Cell is one (workload, block) point: the three schemes' counts.
type table1Cell struct {
	ours         core.Counts
	eggers, torr core.SharingCounts
}

// Table1 regenerates the paper's Table 1: the number of true-sharing, cold
// and false-sharing misses under the three classifications, for the large
// data sets at block sizes of 32 and 1024 bytes. With Quick, the small data
// sets are used instead (and no paper reference column is available). Each
// workload is one sweep cell whose fused replay drives the three
// classifiers at both block sizes.
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

	// One fused sweep cell per workload: both block sizes and all three
	// schemes off one pass (per shard) over the trace.
	cache := o.traceCache()
	groups, gFails, err := mapCells(o, len(ws), func(ctx context.Context, wi int) ([]table1Cell, error) {
		w := ws[wi]
		defer replaySpan(ctx, w.Name, "fused-tri", 0).End()
		eff := o.shardsPerCell()
		open, err := o.shardSource(ctx, cache, w.Name, core.CoarsestGeometry(geos), eff)
		if err != nil {
			return nil, err
		}
		tri, err := classifyAllFused(ctx, open, w.Procs, geos, eff)
		if err != nil {
			return nil, err
		}
		out := make([]table1Cell, len(geos))
		for bi := range geos {
			out[bi] = table1Cell{ours: tri.ours[bi], eggers: tri.eggers[bi], torr: tri.torr[bi]}
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	return renderTable1(o, ws, blocks, flattenGroups(groups, len(blocks)), expandGroupFailures(gFails, len(blocks)))
}

// renderTable1 writes Table 1 for the (workload, block) grid cells, laid
// out workload-major.
func renderTable1(o Options, ws []*workload.Workload, blocks []int, cells []table1Cell, fails *sweep.Failures) error {
	fmt.Fprintln(o.Out, "Table 1: miss counts under the three classifications")
	fmt.Fprintln(o.Out)
	tb := report.NewTable("workload", "B", "class", "scheme", "misses", "paper")
	for wi, w := range ws {
		for bi, b := range blocks {
			if fails.Failed(wi*len(blocks)+bi) != nil {
				tb.Rowf(w.Name, b, "FAILED")
				continue
			}
			cell := cells[wi*len(blocks)+bi]
			ours, eggers, torr := cell.ours, cell.eggers, cell.torr
			schemes := [3]struct {
				name string
				c    [3]uint64 // true, cold, false
			}{
				{"ours", [3]uint64{ours.PTS, ours.Cold(), ours.PFS}},
				{"eggers", [3]uint64{eggers.True, eggers.Cold, eggers.False}},
				{"torrellas", [3]uint64{torr.True, torr.Cold, torr.False}},
			}
			classes := [3]string{"TS", "COLD", "FS"}
			for ci, class := range classes {
				for si, s := range schemes {
					paper := ""
					if ref, ok := table1Paper[w.Name][b]; ok {
						paper = fmt.Sprint(ref[si][ci])
					}
					tb.Rowf(w.Name, b, class, s.name, s.c[ci], paper)
				}
			}
		}
	}
	failNote(tb, fails, func(i int) string {
		return fmt.Sprintf("%s B=%d", ws[i/len(blocks)].Name, blocks[i%len(blocks)])
	})
	if o.CSV {
		if err := tb.CSV(o.Out); err != nil {
			return err
		}
		return partialErr(fails)
	}
	tb.Fprint(o.Out)
	fmt.Fprintln(o.Out)
	fmt.Fprintln(o.Out, "Eggers' scheme can only under-count true sharing relative to ours;")
	fmt.Fprintln(o.Out, "Torrellas' counts many sharing misses as cold (word-grain first touch).")
	return partialErr(fails)
}
