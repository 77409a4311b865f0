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

// Compare deepens the paper's §3/Table 1 comparison: it classifies every
// miss jointly under the three schemes and prints the pairwise confusion
// matrices, quantifying the disagreements the paper argues qualitatively —
// in particular the "prefetching effects" of Torrellas' scheme that the
// paper notes were never quantified: the misses Torrellas calls FSM or CM
// that actually communicate values the processor needs (ours: TRUE). One
// sweep cell per workload computes the joint verdict matrix.
func Compare(o Options, blockBytes int) error {
	defer driverSpan("compare").End()
	g, err := mem.NewGeometry(blockBytes)
	if err != nil {
		return err
	}
	names := o.workloads(workload.SmallSet())
	labels := [3]string{"COLD", "TRUE", "FALSE"}

	ws, err := getWorkloads(names)
	if err != nil {
		return err
	}
	cache := o.traceCache()
	cells, err := mapCells(o, len(ws), func(ctx context.Context, i int) (core.CrossCounts, error) {
		w := ws[i]
		defer replaySpan(ctx, w.Name, "cross", blockBytes).End()
		r, err := o.reader(ctx, cache, w.Name)
		if err != nil {
			return core.CrossCounts{}, err
		}
		c := core.NewCrossClassifier(w.Procs, g)
		if err := trace.DriveContext(ctx, r, c); err != nil {
			return core.CrossCounts{}, err
		}
		matrix, _, _, _ := c.Finish()
		return matrix, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(o.Out, "Joint classification of every miss (B=%d bytes): ours vs. the earlier schemes\n", blockBytes)
	for wi, w := range ws {
		matrix := cells[wi]
		fmt.Fprintf(o.Out, "\n%s (%d misses)\n", w.Name, matrix.Total())
		for _, pair := range []struct {
			scheme string
			m      [3][3]uint64
		}{
			{"eggers", matrix.OursVsEggers()},
			{"torrellas", matrix.OursVsTorrellas()},
		} {
			tb := report.NewTable("ours \\ "+pair.scheme, labels[0], labels[1], labels[2])
			for oi, row := range pair.m {
				tb.Rowf(labels[oi], row[0], row[1], row[2])
			}
			if o.CSV {
				if err := tb.CSV(o.Out); err != nil {
					return err
				}
				continue
			}
			tb.Fprint(o.Out)
			fmt.Fprintf(o.Out, "agreement with ours: %.1f%%\n\n", 100*core.Agreement(pair.m))
		}
		if !o.CSV {
			vt := matrix.OursVsTorrellas()
			hidden := vt[core.SharingTrue][core.SharingFalse] + vt[core.SharingTrue][core.SharingCold]
			fmt.Fprintf(o.Out, "misses carrying needed values that Torrellas calls FSM or CM: %d\n", hidden)
		}
	}
	return nil
}
