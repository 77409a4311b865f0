package experiment

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// hotspotCell is one workload's per-region attribution.
type hotspotCell struct {
	perRegion map[string]*core.Counts
	totals    core.Counts
}

// Hotspots attributes every classified miss to the data structure it lands
// in, mechanically validating the narrative of §6: which structure causes
// each benchmark's true and false sharing at a given block size (particles
// vs. space cells in MP3D, the grids vs. the barrier counter/flag in
// JACOBI, the matrix vs. the column flags in LU, and so on). Blocks that
// span two structures are attributed to the structure containing their
// first word. One sweep cell per workload runs the hooked classifier.
func Hotspots(o Options, blockBytes int) error {
	defer driverSpan("hotspots").End()
	g, err := mem.NewGeometry(blockBytes)
	if err != nil {
		return err
	}
	names := o.workloads(workload.SmallSet())

	ws, err := getWorkloads(names)
	if err != nil {
		return err
	}
	cache := o.traceCache()
	cells, err := mapCells(o, len(ws), func(ctx context.Context, i int) (hotspotCell, error) {
		w := ws[i]
		defer replaySpan(ctx, w.Name, "hotspots", blockBytes).End()
		r, err := o.reader(ctx, cache, w.Name)
		if err != nil {
			return hotspotCell{}, err
		}
		perRegion := make(map[string]*core.Counts)
		classifier := core.NewClassifier(w.Procs, g)
		classifier.Hook(func(_ int, b mem.Block, class core.Class) {
			region := w.RegionOf(g.BaseOf(b))
			counts := perRegion[region]
			if counts == nil {
				counts = &core.Counts{}
				perRegion[region] = counts
			}
			switch class {
			case core.ClassPC:
				counts.PC++
			case core.ClassCTS:
				counts.CTS++
			case core.ClassCFS:
				counts.CFS++
			case core.ClassPTS:
				counts.PTS++
			case core.ClassPFS:
				counts.PFS++
			case core.ClassRepl:
				counts.Repl++
			}
		})
		if err := trace.DriveContext(ctx, r, classifier); err != nil {
			return hotspotCell{}, err
		}
		return hotspotCell{perRegion: perRegion, totals: classifier.Finish()}, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(o.Out, "Miss attribution by data structure (B=%d bytes)\n", blockBytes)
	for wi, w := range ws {
		perRegion, totals := cells[wi].perRegion, cells[wi].totals

		regions := make([]string, 0, len(perRegion))
		for region := range perRegion {
			regions = append(regions, region)
		}
		// Sort by miss count, breaking ties by name so the report is
		// deterministic regardless of map iteration order.
		sort.Slice(regions, func(i, j int) bool {
			ti, tj := perRegion[regions[i]].Total(), perRegion[regions[j]].Total()
			if ti != tj {
				return ti > tj
			}
			return regions[i] < regions[j]
		})

		fmt.Fprintf(o.Out, "\n%s (%d misses total, %d useless)\n", w.Name, totals.Total(), totals.PFS)
		tb := report.NewTable("region", "misses", "cold", "PTS", "PFS", "share of PFS")
		for _, region := range regions {
			c := perRegion[region]
			share := "0%"
			if totals.PFS > 0 {
				share = fmt.Sprintf("%.0f%%", 100*float64(c.PFS)/float64(totals.PFS))
			}
			tb.Rowf(region, c.Total(), c.Cold(), c.PTS, c.PFS, share)
		}
		if o.CSV {
			if err := tb.CSV(o.Out); err != nil {
				return err
			}
			continue
		}
		tb.Fprint(o.Out)
	}
	return nil
}
