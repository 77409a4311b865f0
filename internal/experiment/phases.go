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

// phasesCell is one workload's phase series.
type phasesCell struct {
	points []core.PhasePoint
	tail   core.PhasePoint
}

// Phases renders the miss classification as a time series over the
// computation's phases, bucketed into at most `buckets` rows: the cold ramp
// draining into steady-state sharing, and — in LU — the rate climbing as
// the active columns shrink toward the block size. One sweep cell per
// workload computes the series.
func Phases(o Options, blockBytes, buckets int) error {
	defer driverSpan("phases").End()
	g, err := mem.NewGeometry(blockBytes)
	if err != nil {
		return err
	}
	if buckets < 1 {
		return fmt.Errorf("experiment: need at least one bucket")
	}
	names := o.workloads(workload.SmallSet())

	ws, err := getWorkloads(names)
	if err != nil {
		return err
	}
	cache := o.traceCache()
	cells, err := mapCells(o, len(ws), func(ctx context.Context, i int) (phasesCell, error) {
		w := ws[i]
		defer replaySpan(ctx, w.Name, "phases", blockBytes).End()
		r, err := o.reader(ctx, cache, w.Name)
		if err != nil {
			return phasesCell{}, err
		}
		series := core.NewPhaseSeries(w.Procs, g)
		if err := trace.DriveContext(ctx, r, series); err != nil {
			return phasesCell{}, err
		}
		points, tail := series.Finish()
		return phasesCell{points: points, tail: tail}, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(o.Out, "Miss classification over computation phases (B=%d bytes)\n", blockBytes)
	for wi, w := range ws {
		points, tail := cells[wi].points, cells[wi].tail
		fmt.Fprintf(o.Out, "\n%s (%d phases)\n", w.Name, len(points))
		tb := report.NewTable("phases", "refs", "cold", "PTS", "PFS", "miss%")
		for _, bucket := range bucketize(points, buckets) {
			var agg core.Counts
			var refs uint64
			for _, p := range bucket.points {
				agg = agg.Add(p.Counts)
				refs += p.DataRefs
			}
			tb.Rowf(bucket.label, refs, agg.Cold(), agg.PTS, agg.PFS,
				pct(core.Rate(agg.Total(), refs)))
		}
		if tail.Counts.Total() > 0 || tail.DataRefs > 0 {
			// Lifetimes still open at the end classify here; their
			// misses happened earlier, so no rate is meaningful.
			tb.Rowf("(end)", tail.DataRefs, tail.Counts.Cold(),
				tail.Counts.PTS, tail.Counts.PFS, "-")
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

type phaseBucket struct {
	label  string
	points []core.PhasePoint
}

// bucketize splits the series into at most n contiguous buckets.
func bucketize(points []core.PhasePoint, n int) []phaseBucket {
	if len(points) == 0 {
		return nil
	}
	if n > len(points) {
		n = len(points)
	}
	var out []phaseBucket
	for b := 0; b < n; b++ {
		lo := b * len(points) / n
		hi := (b + 1) * len(points) / n
		label := fmt.Sprintf("%d-%d", lo, hi-1)
		if lo == hi-1 {
			label = fmt.Sprint(lo)
		}
		out = append(out, phaseBucket{label: label, points: points[lo:hi]})
	}
	return out
}
