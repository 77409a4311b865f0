package experiment

import (
	"context"
	"fmt"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// table2Paper holds the paper's Table 2 rows: speedup, writes (thousands),
// reads (thousands), acquire/release references (thousands), data set (KB).
var table2Paper = map[string][5]float64{
	"MP3D1000":  {10.9, 357, 948, 90, 36},
	"MP3D10000": {14.9, 1510, 2561, 411, 360},
	"WATER16":   {12.3, 83, 973, 9, 10},
	"WATER288":  {14.9, 5114, 71134, 531, 195},
	"LU32":      {5.7, 37, 136, 4, 8},
	"LU200":     {14.9, 5663, 11764, 10, 320},
	"JACOBI":    {15.0, 280, 2407, 4, 65},
}

// Table2 regenerates the paper's Table 2: the characteristics of every
// benchmark trace (modeled speedup, reference volumes, synchronization
// operations, data-set size), next to the values the paper reports. With
// Quick, only the small data sets are characterized (the large ones stream
// tens of millions of references). One sweep cell per workload collects the
// statistics.
func Table2(o Options) error {
	defer driverSpan("table2").End()
	defaults := workload.Names()
	if o.Quick {
		defaults = workload.SmallSet()
	}
	names := o.workloads(defaults)

	ws, err := getWorkloads(names)
	if err != nil {
		return err
	}
	cache := o.traceCache()
	cells, err := mapCells(o, len(ws), func(ctx context.Context, i int) (*trace.Stats, error) {
		w := ws[i]
		defer replaySpan(ctx, w.Name, "stats", 0).End()
		r, err := o.reader(ctx, cache, w.Name)
		if err != nil {
			return nil, err
		}
		s := trace.NewStats(w.Procs, true)
		if err := trace.DriveContext(ctx, r, s); err != nil {
			return nil, err
		}
		return s, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(o.Out, "Table 2: characteristics of the benchmarks (measured | paper)")
	fmt.Fprintln(o.Out)
	tb := report.NewTable("benchmark", "speedup", "writes(k)", "reads(k)", "acq/rel(k)", "data(KB)")
	for wi, w := range ws {
		name := w.Name
		s := cells[wi]
		paper, ok := table2Paper[name]
		cell := func(measured float64, idx int, format string) string {
			if !ok {
				return fmt.Sprintf(format, measured)
			}
			return fmt.Sprintf(format+" | "+format, measured, paper[idx])
		}
		tb.Row(name,
			cell(s.Speedup(), 0, "%.1f"),
			cell(float64(s.Stores)/1000, 1, "%.0f"),
			cell(float64(s.Loads)/1000, 2, "%.0f"),
			cell(float64(s.SyncRefs())/1000, 3, "%.1f"),
			cell(float64(s.DataSetBytes())/1024, 4, "%.0f"),
		)
	}
	if o.CSV {
		return tb.CSV(o.Out)
	}
	tb.Fprint(o.Out)
	return nil
}
