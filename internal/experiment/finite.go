package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/finite"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// CacheSizes is the default per-processor cache-capacity sweep for
// FiniteSweep, in bytes; 0 stands for an infinite cache.
var CacheSizes = []int{512, 1 << 10, 2 << 10, 8 << 10, 32 << 10, 0}

// finiteCell is one (workload, capacity) point.
type finiteCell struct {
	counts core.Counts
	refs   uint64
}

// FiniteSweep runs the §8 finite-cache extension: the miss classification
// as a function of the per-processor cache size, with replacement misses as
// a third essential component. The paper's expectation to check: "the
// fraction of essential misses will increase in systems with finite
// caches". The (workload, capacity) grid runs on the sweep engine.
func FiniteSweep(o Options, blockBytes, assoc int) error {
	defer driverSpan("finite").End()
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
	cells, err := mapCells(o, len(ws)*len(CacheSizes), func(ctx context.Context, i int) (finiteCell, error) {
		w := ws[i/len(CacheSizes)]
		capacity := CacheSizes[i%len(CacheSizes)]
		defer replaySpan(ctx, w.Name, capacityLabel(capacity), blockBytes).End()
		r, err := o.reader(ctx, cache, w.Name)
		if err != nil {
			return finiteCell{}, err
		}
		counts, refs, err := classifyAtCapacity(ctx, r, g, capacity, assoc)
		if err != nil {
			return finiteCell{}, err
		}
		return finiteCell{counts: counts, refs: refs}, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(o.Out, "Finite caches (B=%d bytes, %d-way LRU): classification vs. capacity\n\n",
		blockBytes, assoc)
	tb := report.NewTable("workload", "cache", "cold%", "PTS%", "repl%", "PFS%", "total%", "essential frac")
	for wi, w := range ws {
		for ci, capacity := range CacheSizes {
			cell := cells[wi*len(CacheSizes)+ci]
			counts, refs := cell.counts, cell.refs
			frac := 0.0
			if counts.Total() > 0 {
				frac = float64(counts.Essential()) / float64(counts.Total())
			}
			tb.Rowf(w.Name, capacityLabel(capacity),
				pct(core.Rate(counts.Cold(), refs)),
				pct(core.Rate(counts.PTS, refs)),
				pct(core.Rate(counts.Repl, refs)),
				pct(core.Rate(counts.PFS, refs)),
				pct(core.Rate(counts.Total(), refs)),
				fmt.Sprintf("%.3f", frac))
		}
	}
	if o.CSV {
		return tb.CSV(o.Out)
	}
	tb.Fprint(o.Out)
	fmt.Fprintln(o.Out)
	fmt.Fprintln(o.Out, "Paper §8: replacement misses are essential, so the essential fraction")
	fmt.Fprintln(o.Out, "rises as the cache shrinks; cold/PTS/PFS follow the infinite-cache split.")
	return nil
}

// classifyAtCapacity classifies one replay of r with the given
// per-processor cache capacity; capacity 0 means infinite.
func classifyAtCapacity(ctx context.Context, r trace.Reader, g mem.Geometry, capacity, assoc int) (core.Counts, uint64, error) {
	if capacity == 0 {
		c := core.NewClassifier(r.NumProcs(), g)
		if err := trace.DriveContext(ctx, r, c); err != nil {
			return core.Counts{}, 0, err
		}
		return c.Finish(), c.DataRefs(), nil
	}
	return finite.ClassifyContext(ctx, r, g, finite.Config{CapacityBytes: capacity, Assoc: assoc})
}

func capacityLabel(capacity int) string {
	switch {
	case capacity == 0:
		return "infinite"
	case capacity < 1<<10:
		return fmt.Sprintf("%dB", capacity)
	default:
		return fmt.Sprintf("%dKB", capacity>>10)
	}
}
