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

// Ablations for the design choices DESIGN.md calls out: the competitive
// -update threshold (how many remote updates a copy tolerates before
// self-invalidating) and the finite invalidation buffer of the word
// -invalidate protocols. Each (workload, variant) pair is one sweep cell
// replaying the workload's cached trace.

// runVariants executes one cell per (workload, variant) on the sweep
// engine, where newSim builds variant j's simulator, and returns the
// results in (workload-major, variant) order. Without split the simulators
// are rate-only (see coherence.RatesOnly) and every Counts is zero.
func runVariants(o Options, ws []*workload.Workload, variants int, split bool,
	newSim func(w *workload.Workload, j int) (coherence.Simulator, error)) ([]coherence.Result, error) {
	cache := o.traceCache()
	return mapCells(o, len(ws)*variants, func(ctx context.Context, i int) (coherence.Result, error) {
		w, j := ws[i/variants], i%variants
		defer replaySpan(ctx, w.Name, fmt.Sprintf("variant-%d", j), 0).End()
		sim, err := newSim(w, j)
		if err != nil {
			return coherence.Result{}, err
		}
		if !split {
			sim = coherence.RatesOnly(sim)
		}
		r, err := o.reader(ctx, cache, w.Name)
		if err != nil {
			return coherence.Result{}, err
		}
		if err := trace.DriveContext(ctx, r, sim); err != nil {
			return coherence.Result{}, err
		}
		return sim.Finish(), nil
	})
}

// CompetitiveThresholds is the default sweep for AblationCU.
var CompetitiveThresholds = []int{1, 2, 4, 8, 16, 32}

// AblationCU sweeps the competitive-update threshold and reports the
// miss/update-traffic trade-off against the WU (threshold = infinity) and
// MIN (pure invalidate, word grain) endpoints. Larger thresholds approach
// WU's cold-only miss rate at the price of more update messages. The
// report reads no miss split, so the simulators are rate-only.
func AblationCU(o Options, blockBytes int) error {
	defer driverSpan("ablate-cu").End()
	g, err := mem.NewGeometry(blockBytes)
	if err != nil {
		return err
	}
	names := o.workloads(workload.SmallSet())
	ws, err := getWorkloads(names)
	if err != nil {
		return err
	}

	// Variants: the MIN and WU endpoints plus the CU sweep.
	labels := []string{"MIN", "WU"}
	for _, threshold := range CompetitiveThresholds {
		labels = append(labels, fmt.Sprintf("CU-%d", threshold))
	}
	cells, err := runVariants(o, ws, len(labels), false,
		func(w *workload.Workload, j int) (coherence.Simulator, error) {
			switch j {
			case 0:
				return coherence.NewMIN(w.Procs, g), nil
			case 1:
				return coherence.NewWU(w.Procs, g), nil
			default:
				return coherence.NewCU(w.Procs, g, CompetitiveThresholds[j-2])
			}
		})
	if err != nil {
		return err
	}

	fmt.Fprintf(o.Out, "Competitive-update threshold ablation (B=%d bytes)\n\n", blockBytes)
	tb := report.NewTable("workload", "protocol", "miss%", "updates/ref", "traffic B/ref")
	for wi, w := range ws {
		for j, label := range labels {
			res := cells[wi*len(labels)+j]
			refs := float64(res.DataRefs)
			tb.Rowf(w.Name, label,
				pct(res.MissRate()),
				fmt.Sprintf("%.3f", float64(res.Updates)/refs),
				fmt.Sprintf("%.2f", float64(TrafficOf(res, g))/refs))
		}
	}
	if o.CSV {
		return tb.CSV(o.Out)
	}
	tb.Fprint(o.Out)
	return nil
}

// SectorSizes is the default coherence-grain sweep for AblationSector, in
// bytes; sizes above the block size are skipped.
var SectorSizes = []int{4, 16, 64, 256, 1024}

// AblationSector sweeps the coherence grain of a sectored protocol at a
// fixed (large) fetch block size: the §7 outlook — multiple block sizes, or
// word-grain coherence — as numbers. Word-sized sectors are exactly WBWI;
// block-sized sectors degenerate to full-block invalidation. The question
// it answers: how fine must the coherence grain be before the page-sized
// fetch block stops paying for false sharing? Its TRUE% and FALSE% columns
// read each variant's miss split, so its simulators keep it.
func AblationSector(o Options, blockBytes int) error {
	defer driverSpan("ablate-sector").End()
	g, err := mem.NewGeometry(blockBytes)
	if err != nil {
		return err
	}
	names := o.workloads(workload.SmallSet())
	ws, err := getWorkloads(names)
	if err != nil {
		return err
	}

	var sectors []int
	for _, sector := range SectorSizes {
		if sector <= blockBytes {
			sectors = append(sectors, sector)
		}
	}
	cells, err := runVariants(o, ws, len(sectors), true,
		func(w *workload.Workload, j int) (coherence.Simulator, error) {
			return coherence.NewSectored(w.Procs, g, sectors[j])
		})
	if err != nil {
		return err
	}

	fmt.Fprintf(o.Out, "Coherence-grain ablation (fetch block B=%d bytes)\n\n", blockBytes)
	tb := report.NewTable("workload", "sector", "miss%", "TRUE%", "FALSE%")
	for wi, w := range ws {
		for j := range sectors {
			res := cells[wi*len(sectors)+j]
			tb.Rowf(w.Name, res.Protocol,
				pct(res.MissRate()),
				pct(core.Rate(res.Counts.PTS, res.DataRefs)),
				pct(core.Rate(res.Counts.PFS, res.DataRefs)))
		}
	}
	if o.CSV {
		return tb.CSV(o.Out)
	}
	tb.Fprint(o.Out)
	return nil
}

// BufferSizes is the default sweep for AblationWBWI, in buffered words per
// copy; 0 stands for unlimited (a dirty bit per word, the paper's WBWI).
var BufferSizes = []int{1, 2, 4, 8, 16, 0}

// AblationWBWI sweeps the size of WBWI's per-copy invalidation buffer,
// interpolating between on-the-fly invalidation (tiny buffers overflow on
// nearly every remote store) and the paper's WBWI (a dirty bit per word).
// It quantifies the §7 hardware-cost remark: how many dirty bits per block
// are actually needed before WBWI reaches its unlimited-buffer miss rate.
// The report reads no miss split, so the simulators are rate-only.
func AblationWBWI(o Options, blockBytes int) error {
	defer driverSpan("ablate-wbwi").End()
	g, err := mem.NewGeometry(blockBytes)
	if err != nil {
		return err
	}
	names := o.workloads(workload.SmallSet())
	ws, err := getWorkloads(names)
	if err != nil {
		return err
	}

	labels := make([]string, len(BufferSizes))
	for j, entries := range BufferSizes {
		if entries == 0 {
			labels[j] = "unlimited"
		} else {
			labels[j] = fmt.Sprintf("%d words", entries)
		}
	}
	cells, err := runVariants(o, ws, len(BufferSizes), false,
		func(w *workload.Workload, j int) (coherence.Simulator, error) {
			if BufferSizes[j] == 0 {
				return coherence.NewWBWI(w.Procs, g), nil
			}
			return coherence.NewWBWILimited(w.Procs, g, BufferSizes[j])
		})
	if err != nil {
		return err
	}

	fmt.Fprintf(o.Out, "WBWI invalidation-buffer ablation (B=%d bytes, %d words per block)\n\n",
		blockBytes, g.WordsPerBlock())
	tb := report.NewTable("workload", "buffer", "miss%", "vs unlimited")
	for wi, w := range ws {
		base := wi * len(BufferSizes)
		results := cells[base : base+len(BufferSizes)]
		// The unlimited baseline is the last variant.
		unlimited := results[len(results)-1].MissRate()
		for j, res := range results {
			rel := "n/a"
			if unlimited > 0 {
				rel = fmt.Sprintf("%+.0f%%", 100*(res.MissRate()-unlimited)/unlimited)
			}
			tb.Rowf(w.Name, labels[j], pct(res.MissRate()), rel)
		}
	}
	if o.CSV {
		return tb.CSV(o.Out)
	}
	tb.Fprint(o.Out)
	return nil
}
