package coherence

import (
	"context"

	"repro/internal/mem"
	"repro/internal/trace"
)

// This file is the schedules' entry into the fused sweep: one replay of the
// trace feeds a grid of simulators — every requested protocol at every
// requested block size — at once, so a whole Fig. 6 panel row, or one
// protocol of the §7 study at both of its block sizes, costs one generation
// or one read of a packed file instead of one per simulator.
//
// The fusion is sound because the simulators are passive consumers: each
// keeps its own block table (whose entries carry its lifetime handles),
// lifetime records, buffers and credit books, and reads nothing from the
// drive but the reference stream itself. Feeding N simulators from one
// stream is therefore exactly N independent replays of the same stream, and
// each Finish returns precisely the per-cell result.

// RunProtocols replays the named protocols at every geometry in geos in one
// fused pass over the reader open returns: every simulator of the grid is
// built first, then trace.DriveContext feeds them all one batch at a time.
// The results are returned geometry-major — protos[j] at geos[i] is result
// i*len(protos)+j — and are bit-for-bit the results of RunWith per protocol
// and geometry. With split false every simulator is rate-only (see
// RatesOnly): the results are the same with Counts zero. An unknown
// protocol name fails before open is called.
func RunProtocols(ctx context.Context, open func() (trace.Reader, error), procs int, geos []mem.Geometry, protos []string, split bool) ([]Result, error) {
	if len(protos) == 0 || len(geos) == 0 {
		return nil, nil
	}
	sims := make([]Simulator, 0, len(geos)*len(protos))
	consumers := make([]trace.Consumer, 0, cap(sims))
	for _, g := range geos {
		for _, name := range protos {
			sim, err := New(name, procs, g)
			if err != nil {
				return nil, err
			}
			if !split {
				sim = RatesOnly(sim)
			}
			sims = append(sims, sim)
			consumers = append(consumers, sim)
		}
	}
	r, err := open()
	if err != nil {
		return nil, err
	}
	if err := trace.DriveContext(ctx, r, consumers...); err != nil {
		return nil, err
	}
	out := make([]Result, len(sims))
	for i, s := range sims {
		out[i] = s.Finish()
	}
	return out, nil
}
