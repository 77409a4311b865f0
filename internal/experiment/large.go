package experiment

import (
	"context"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/workload"
)

// largeBlocks is the §7 study's fixed block-size pair.
var largeBlocks = []int{64, 1024}

// Large regenerates the §7 large-data-set study: for LU200, MP3D10000 and
// WATER288 it compares the invalidation schedules at B=64 and B=1024 and
// reports the gap between the on-the-fly and the essential miss rate. The
// paper's findings: at B=64 the OTF rate is within 20% of the essential
// rate, so invalidation scheduling matters little; at B=1024 the false
// sharing components are very large and the protocols stay far from the
// essential rate; MAX is disastrous for LU.
//
// The full run streams on the order of a hundred million references per
// protocol; with Quick the small data sets are substituted. Each
// (workload, protocol) pair is one sweep cell whose fused replay drives the
// protocol's simulators at both block sizes. The report prints miss rates
// only — its essential rate is MIN's miss rate, which §4 makes equal to the
// essential miss count — so the simulators are rate-only (see
// coherence.RatesOnly) and run no lifetime engine.
func Large(o Options) error {
	defer driverSpan("large").End()
	defaults := workload.LargeSet()
	if o.Quick {
		defaults = []string{"LU32", "MP3D1000", "WATER16"}
	}
	names := o.workloads(defaults)
	protos := o.Protocols
	if len(protos) == 0 {
		protos = coherence.Protocols
	}

	ws, err := getWorkloads(names)
	if err != nil {
		return err
	}
	geos := make([]mem.Geometry, len(largeBlocks))
	for i, b := range largeBlocks {
		geos[i] = mem.MustGeometry(b)
	}
	for _, name := range protos {
		if _, err := coherence.New(name, workload.DefaultProcs, geos[0]); err != nil {
			return err
		}
	}

	// One sweep cell per (workload, protocol): one pass over the trace
	// drives the protocol's simulators at both block sizes. A cell per
	// (workload, block) running every protocol would read the trace fewer
	// times; with rate-only simulators its heap is no longer the obstacle,
	// but it did not measurably beat this shape (DESIGN.md §12).
	cache := o.traceCache()
	cells, err := mapCells(o, len(ws)*len(protos), func(ctx context.Context, i int) ([]coherence.Result, error) {
		w := ws[i/len(protos)]
		proto := protos[i%len(protos)]
		defer replaySpan(ctx, w.Name, proto, 0).End()
		open, err := o.source(ctx, cache, w.Name)
		if err != nil {
			return nil, err
		}
		return coherence.RunProtocols(ctx, open, w.Procs, geos, []string{proto}, false)
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(o.Out, "Section 7: large data sets — schedules at B=64 and B=1024")
	fmt.Fprintln(o.Out)
	tb := report.NewTable("workload", "B", "protocol", "miss%", "essential%", "vs MIN")
	for wi, w := range ws {
		// Cell wi*len(protos)+pi holds protocol pi's results, one per
		// block size.
		row := cells[wi*len(protos) : (wi+1)*len(protos)]
		for bi, b := range largeBlocks {
			var minRate float64
			for pi, res := range row {
				if protos[pi] == "MIN" {
					minRate = res[bi].MissRate()
				}
			}
			for _, res := range row {
				gap := "n/a"
				if minRate > 0 {
					gap = fmt.Sprintf("%+.0f%%", 100*(res[bi].MissRate()-minRate)/minRate)
				}
				tb.Rowf(w.Name, b, res[bi].Protocol, pct(res[bi].MissRate()), pct(minRate), gap)
			}
		}
	}
	if o.CSV {
		return tb.CSV(o.Out)
	}
	tb.Fprint(o.Out)
	fmt.Fprintln(o.Out)
	fmt.Fprintln(o.Out, "Paper §7: at B=64 every schedule lands within ~20% of the essential rate;")
	fmt.Fprintln(o.Out, "at B=1024 false sharing dominates and MAX is far worse, especially for LU.")
	return nil
}
