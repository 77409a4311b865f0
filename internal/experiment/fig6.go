package experiment

import (
	"context"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig6 regenerates one panel of the paper's Fig. 6: the effect of the
// invalidation schedule on the miss rate at the given block size (64 bytes
// for cache-based systems in Fig. 6a, 1024 bytes for virtual shared memory
// in Fig. 6b). The grid runs on the sweep engine with one cell per workload,
// whose fused replay drives every protocol at once; OTF, RD, SD and SRD are
// decomposed into TRUE/COLD/FALSE like the paper's stacked bars, while MIN
// (no false sharing by construction), WBWI and MAX are shown as totals.
func Fig6(o Options, blockBytes int) error {
	defer driverSpan("fig6").End()
	g, err := mem.NewGeometry(blockBytes)
	if err != nil {
		return err
	}
	names := o.workloads(workload.SmallSet())
	protos := o.Protocols
	if len(protos) == 0 {
		protos = coherence.Protocols
	}

	ws, err := getWorkloads(names)
	if err != nil {
		return err
	}
	// Validate the protocol names before any cell runs.
	for _, name := range protos {
		if _, err := coherence.New(name, workload.DefaultProcs, g); err != nil {
			return err
		}
	}

	// One fused sweep cell per workload: a single pass over the trace drives
	// every protocol's simulator at once.
	cache := o.traceCache()
	groups, err := mapCells(o, len(ws), func(ctx context.Context, wi int) ([]coherence.Result, error) {
		w := ws[wi]
		defer replaySpan(ctx, w.Name, "fused-protocols", blockBytes).End()
		open, err := o.source(ctx, cache, w.Name)
		if err != nil {
			return nil, err
		}
		return coherence.RunProtocols(ctx, open, w.Procs, []mem.Geometry{g}, protos, true)
	})
	if err != nil {
		return err
	}
	return renderFig6(o, blockBytes, ws, protos, flattenGroups(groups, len(protos)))
}

// renderFig6 writes the Fig. 6 panel for the (workload, protocol) grid
// cells, laid out workload-major.
func renderFig6(o Options, blockBytes int, ws []*workload.Workload, protos []string, cells []coherence.Result) error {
	fmt.Fprintf(o.Out, "Figure 6 (B=%d bytes): effect of invalidation scheduling on the miss rate\n", blockBytes)
	for wi, w := range ws {
		results := cells[wi*len(protos) : (wi+1)*len(protos)]
		fmt.Fprintf(o.Out, "\n%s\n", w.Name)
		tb := report.NewTable("protocol", "miss%", "TRUE%", "COLD%", "FALSE%", "invalidations", "upgrades")
		chart := &report.BarChart{Unit: "%"}
		for _, res := range results {
			c := res.Counts
			tb.Rowf(res.Protocol,
				pct(res.MissRate()),
				pct(core.Rate(c.PTS, res.DataRefs)),
				pct(core.Rate(c.Cold(), res.DataRefs)),
				pct(core.Rate(c.PFS, res.DataRefs)),
				res.Invalidations, res.Upgrades)
			switch res.Protocol {
			case "MIN", "WBWI", "MAX": // totals only, like the paper
				chart.Bar(res.Protocol,
					report.Segment{Label: "TOTAL", Value: res.MissRate()})
			default:
				chart.Bar(res.Protocol,
					report.Segment{Label: "TRUE", Value: core.Rate(c.PTS, res.DataRefs)},
					report.Segment{Label: "COLD", Value: core.Rate(c.Cold(), res.DataRefs)},
					report.Segment{Label: "FALSE", Value: core.Rate(c.PFS, res.DataRefs)})
			}
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

// runProtocols replays one generation of the workload trace through all the
// named protocols, each a plain simulator on the serial drive: the
// reference the fused Fig. 6 cells are tested against.
func runProtocols(w *workload.Workload, g mem.Geometry, protos []string) ([]coherence.Result, error) {
	sims := make([]coherence.Simulator, len(protos))
	consumers := make([]trace.Consumer, len(protos))
	for i, name := range protos {
		sim, err := coherence.New(name, w.Procs, g)
		if err != nil {
			return nil, err
		}
		sims[i] = sim
		consumers[i] = sim
	}
	if err := trace.Drive(w.Reader(), consumers...); err != nil {
		return nil, err
	}
	results := make([]coherence.Result, len(sims))
	for i, sim := range sims {
		results[i] = sim.Finish()
	}
	return results, nil
}
