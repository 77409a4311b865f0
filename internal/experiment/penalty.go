package experiment

import (
	"context"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/timing"
	"repro/internal/workload"
)

// Penalty models each invalidation schedule's execution time under a blocking
// memory system, turning the miss-rate differences of Fig. 6 into the
// bottom-line metric the paper's introduction motivates: processor blocking
// ("the penalty of the request"). The report shows parallel cycles per
// reference, the slowdown versus the essential schedule (MIN), and the
// fraction of processor time lost to miss stalls. The (workload, protocol)
// grid runs on the sweep engine. The model reads only miss and upgrade
// counts, so the simulators are rate-only (see coherence.RatesOnly).
func Penalty(o Options, blockBytes int, m timing.Model) error {
	defer driverSpan("penalty").End()
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
	for _, name := range protos {
		if _, err := coherence.New(name, workload.DefaultProcs, g); err != nil {
			return err
		}
	}

	cache := o.traceCache()
	cells, err := mapCells(o, len(ws)*len(protos), func(ctx context.Context, i int) (timing.Times, error) {
		w, proto := ws[i/len(protos)], protos[i%len(protos)]
		defer replaySpan(ctx, w.Name, proto, blockBytes).End()
		r, err := o.reader(ctx, cache, w.Name)
		if err != nil {
			return timing.Times{}, err
		}
		return timing.RunContext(ctx, proto, r, g, m, false)
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(o.Out, "Execution-time model (B=%d bytes, %d-cycle miss penalty)\n\n",
		blockBytes, m.MissPenalty)
	tb := report.NewTable("workload", "protocol", "cycles/ref", "vs MIN", "miss%", "stall share")
	for wi, w := range ws {
		results := cells[wi*len(protos) : (wi+1)*len(protos)]
		var minCycles uint64
		for pi, proto := range protos {
			if proto == "MIN" {
				minCycles = results[pi].Cycles
			}
		}
		for _, times := range results {
			vs := "n/a"
			if minCycles > 0 {
				vs = fmt.Sprintf("%+.1f%%", 100*(float64(times.Cycles)/float64(minCycles)-1))
			}
			stallShare := 0.0
			if times.BusyCycles > 0 {
				stallShare = float64(times.StallCycles) / float64(times.BusyCycles)
			}
			tb.Rowf(w.Name, times.Protocol,
				fmt.Sprintf("%.2f", times.CyclesPerRef()),
				vs,
				pct(times.Result.MissRate()),
				fmt.Sprintf("%.0f%%", 100*stallShare))
		}
	}
	if o.CSV {
		return tb.CSV(o.Out)
	}
	tb.Fprint(o.Out)
	fmt.Fprintln(o.Out)
	fmt.Fprintln(o.Out, "Useless misses translate directly into stall time: the gap between a")
	fmt.Fprintln(o.Out, "schedule and MIN is the execution time the eliminated misses would cost.")
	return nil
}
