package coherence

import (
	"context"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

// This file is the schedules' entry into the fused sweep: one replay of the
// trace (per shard) feeds a grid of simulators — every requested protocol at
// every requested block size — at once, so a whole Fig. 6 panel row, or one
// protocol of the §7 study at both of its block sizes, costs one generation
// or one read of a packed file instead of one per simulator.
//
// The fusion is sound because the simulators are passive consumers: each
// keeps its own block table (whose entries carry its lifetime handles),
// lifetime records, buffers and credit books, and reads nothing from the
// drive but the reference stream itself. Feeding N simulators from one
// stream is therefore exactly N independent replays of the same stream, and
// each Finish returns precisely the per-cell result. Sharding composes the
// same way: every simulator's state is keyed by block — the per-processor
// structures (RD/SRD invalidation buffers, SD/SRD store buffers, MAX credit
// books) hold per-block entries — and every shard's stream keeps every
// synchronization reference, so the shard-native streams drive every
// simulator through the serial schedule restricted to its blocks. With
// several block sizes the shards partition by the coarsest one: a finer
// block never straddles a coarse block, so the partition is a partition of
// every simulator's blocks.

// MergeResults folds two shard Results of the same protocol into one:
// every count is additive over a partition of the block space. The
// protocol name is taken from a.
func MergeResults(a, b Result) Result {
	a.Counts = a.Counts.Add(b.Counts)
	a.DataRefs += b.DataRefs
	a.Misses += b.Misses
	a.Invalidations += b.Invalidations
	a.Upgrades += b.Upgrades
	a.WriteThroughs += b.WriteThroughs
	a.Updates += b.Updates
	return a
}

// multiSim feeds one reference stream to several simulators at once.
type multiSim struct{ sims []Simulator }

func (m *multiSim) Ref(r trace.Ref) {
	for _, s := range m.sims {
		s.Ref(r)
	}
}

// RefBatch implements trace.BatchConsumer, handing each simulator the whole
// batch so the per-batch drive overhead is paid once per simulator, not
// once per reference.
func (m *multiSim) RefBatch(refs []trace.Ref) {
	for _, s := range m.sims {
		if bc, ok := s.(trace.BatchConsumer); ok {
			bc.RefBatch(refs)
		} else {
			for _, r := range refs {
				s.Ref(r)
			}
		}
	}
}

func (m *multiSim) finish() []Result {
	out := make([]Result, len(m.sims))
	for i, s := range m.sims {
		out[i] = s.Finish()
	}
	return out
}

// mergeResultSlices folds two shards' per-protocol results element-wise.
func mergeResultSlices(a, b []Result) []Result {
	for i := range a {
		a[i] = MergeResults(a[i], b[i])
	}
	return a
}

// RunProtocolsShardedOpen replays the named protocols at every geometry in
// geos in one fused pass over shard-native streams: each shard opens its own
// reader via open(shard) (see core.RunShardedOpen) and drives every
// simulator of the grid from it, with the block space partitioned by the
// coarsest geometry, so open(shard) may skip what that partition leaves to
// other shards.
// The results are returned geometry-major — protos[j] at geos[i] is result
// i*len(protos)+j — and are bit-for-bit the results of RunWith per protocol
// and geometry, for every shard count; shards <= 1 is a single serial fused
// replay. With split false every simulator is rate-only (see RatesOnly):
// the results are the same with Counts zero. An unknown protocol name fails
// before any reader is opened.
func RunProtocolsShardedOpen(ctx context.Context, open func(shard int) (trace.Reader, error), procs int, geos []mem.Geometry, protos []string, shards int, split bool) ([]Result, error) {
	if len(protos) == 0 || len(geos) == 0 {
		return nil, nil
	}
	n := shards
	if n < 1 {
		n = 1
	}
	groups := make([]*multiSim, n)
	for i := range groups {
		sims := make([]Simulator, 0, len(geos)*len(protos))
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
			}
		}
		groups[i] = &multiSim{sims: sims}
	}
	return core.RunShardedOpen(ctx, open, shards, trace.BlockShard(core.CoarsestGeometry(geos), shards),
		func(i int) *multiSim { return groups[i] },
		(*multiSim).finish,
		mergeResultSlices)
}
