package experiment

import (
	"context"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Message-size model for the traffic study, in bytes. Addresses are 32-bit
// like the paper's machines; a data word is 4 bytes; a block fetch moves
// the block plus its address.
const (
	invalidationMsgBytes = 8  // address + header
	wordMsgBytes         = 12 // address + one word + header (write-through, update)
)

// fetchBytes is the traffic of one block fetch.
func fetchBytes(g mem.Geometry) uint64 { return uint64(g.BlockBytes()) + 8 }

// TrafficOf converts a protocol result into total traffic in bytes under
// the message-size model: block fetches for every miss, invalidation
// messages, write-throughs and updates.
func TrafficOf(res coherence.Result, g mem.Geometry) uint64 {
	return res.Misses*fetchBytes(g) +
		res.Invalidations*invalidationMsgBytes +
		(res.WriteThroughs+res.Updates)*wordMsgBytes
}

// Traffic regenerates the §8 traffic remark with numbers: per workload,
// block size and schedule (including the WU/CU extensions), the miss rate
// and the memory traffic per data reference. The paper's observations to
// check: protocols with reduced miss rates also reduce miss traffic, the
// traffic is very high for large blocks, and update-based protocols trade
// fetch traffic for update traffic. The (workload, block, protocol) grid
// runs on the sweep engine, with rate-only simulators (see
// coherence.RatesOnly): the report reads no miss split.
func Traffic(o Options) error {
	defer driverSpan("traffic").End()
	names := o.workloads(workload.SmallSet())
	protos := o.Protocols
	if len(protos) == 0 {
		protos = append(append([]string{}, coherence.Protocols...), coherence.ExtensionProtocols...)
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

	cache := o.traceCache()
	perBlock := len(protos)
	perWorkload := len(largeBlocks) * perBlock
	cells, err := mapCells(o, len(ws)*perWorkload, func(ctx context.Context, i int) (coherence.Result, error) {
		w := ws[i/perWorkload]
		g := geos[i%perWorkload/perBlock]
		proto := protos[i%perBlock]
		defer replaySpan(ctx, w.Name, proto, largeBlocks[i%perWorkload/perBlock]).End()
		sim, err := coherence.New(proto, w.Procs, g)
		if err != nil {
			return coherence.Result{}, err
		}
		sim = coherence.RatesOnly(sim)
		r, err := o.reader(ctx, cache, w.Name)
		if err != nil {
			return coherence.Result{}, err
		}
		if err := trace.DriveContext(ctx, r, sim); err != nil {
			return coherence.Result{}, err
		}
		return sim.Finish(), nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(o.Out, "Memory traffic by invalidation schedule (bytes per data reference)")
	fmt.Fprintln(o.Out)
	tb := report.NewTable("workload", "B", "protocol", "miss%", "fetch B/ref", "msg B/ref", "total B/ref")
	for wi, w := range ws {
		for bi, b := range largeBlocks {
			g := geos[bi]
			base := wi*perWorkload + bi*perBlock
			results := cells[base : base+perBlock]
			for _, res := range results {
				refs := float64(res.DataRefs)
				fetch := float64(res.Misses*fetchBytes(g)) / refs
				msgs := float64(TrafficOf(res, g)-res.Misses*fetchBytes(g)) / refs
				tb.Rowf(w.Name, b, res.Protocol,
					pct(res.MissRate()),
					fmt.Sprintf("%.2f", fetch),
					fmt.Sprintf("%.2f", msgs),
					fmt.Sprintf("%.2f", fetch+msgs))
			}
		}
	}
	if o.CSV {
		return tb.CSV(o.Out)
	}
	tb.Fprint(o.Out)
	fmt.Fprintln(o.Out)
	fmt.Fprintln(o.Out, "Paper §8: reduced miss rates reduce miss traffic, but page-sized blocks")
	fmt.Fprintln(o.Out, "move so much data per miss that update-based protocols become attractive.")
	return nil
}
