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

// fig5Cell is one (workload, block) point of the Fig. 5 grid.
type fig5Cell struct {
	counts core.Counts
	refs   uint64
}

// Fig5 regenerates the paper's Fig. 5: the decomposition of the miss rate
// into pure cold (PC), cold-and-true-sharing (CTS), cold-and-false-sharing
// (CFS), pure true sharing (PTS) and pure false sharing (PFS) misses as a
// function of the block size, for each small-data-set benchmark. The
// grid runs on the sweep engine with one cell per workload, whose fused
// replay classifies every block size at once.
func Fig5(o Options) error {
	defer driverSpan("fig5").End()
	names := o.workloads(workload.SmallSet())
	blocks := o.blocks(Fig5Blocks)

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

	// One fused sweep cell per workload: a single pass over the trace feeds
	// every block size at once.
	cache := o.traceCache()
	groups, err := mapCells(o, len(ws), func(ctx context.Context, wi int) ([]fig5Cell, error) {
		w := ws[wi]
		defer replaySpan(ctx, w.Name, "fused", 0).End()
		r, err := o.reader(ctx, cache, w.Name)
		if err != nil {
			return nil, err
		}
		f := core.NewFusedClassifier(w.Procs, geos)
		if err := trace.DriveContext(ctx, r, f); err != nil {
			return nil, err
		}
		counts, refs := f.Finish(), f.DataRefs()
		out := make([]fig5Cell, len(geos))
		for bi := range geos {
			out[bi] = fig5Cell{counts: counts[bi], refs: refs}
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	return renderFig5(o, ws, blocks, flattenGroups(groups, len(blocks)))
}

// renderFig5 writes the Fig. 5 report for the (workload, block) grid cells,
// laid out workload-major.
func renderFig5(o Options, ws []*workload.Workload, blocks []int, cells []fig5Cell) error {
	fmt.Fprintln(o.Out, "Figure 5: miss classification vs. block size (% of data references)")
	for wi, w := range ws {
		fmt.Fprintf(o.Out, "\n%s — %s\n", w.Name, w.Description)
		tb := report.NewTable("B(bytes)", "PC", "CTS", "CFS", "PTS", "PFS", "essential", "total")
		chart := &report.BarChart{Unit: "%"}
		for bi, b := range blocks {
			cell := cells[wi*len(blocks)+bi]
			counts, refs := cell.counts, cell.refs
			tb.Rowf(b,
				pct(core.Rate(counts.PC, refs)),
				pct(core.Rate(counts.CTS, refs)),
				pct(core.Rate(counts.CFS, refs)),
				pct(core.Rate(counts.PTS, refs)),
				pct(core.Rate(counts.PFS, refs)),
				pct(core.Rate(counts.Essential(), refs)),
				pct(core.Rate(counts.Total(), refs)),
			)
			chart.Bar(fmt.Sprintf("B=%d", b),
				report.Segment{Label: "COLD", Value: core.Rate(counts.Cold(), refs)},
				report.Segment{Label: "TRUE", Value: core.Rate(counts.PTS, refs)},
				report.Segment{Label: "FALSE", Value: core.Rate(counts.PFS, refs)},
			)
		}
		if o.CSV {
			if err := tb.CSV(o.Out); err != nil {
				return err
			}
			continue
		}
		tb.Fprint(o.Out)
		fmt.Fprintln(o.Out)
		chart.Fprint(o.Out)
	}
	return nil
}
