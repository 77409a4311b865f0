package finite

import (
	"context"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

// ShardedClassify runs the finite-cache classification with the block
// space partitioned across shards parallel classifiers, each driving its
// own reader from open (see core.RunShardedOpen), and merges the per-shard
// counts (including Repl) and data-reference counts.
//
// Unlike the infinite-cache classifiers, a finite cache couples blocks
// through replacement: LRU and FIFO evictions are decided within a cache
// set, so the partition must keep every block of a set on one shard. The
// shard key is therefore setIndex(block) % shards rather than
// block % shards — sets are independent under LRU and FIFO, so the merged
// counts equal Classify's for every shard count. The Random policy keeps a
// single xorshift stream across all sets, which no block partition can
// reproduce; it (and shards <= 1) falls back to one serial replay of
// open(0).
//
// open(shard) must return a reader over the whole trace: the set key is not
// the block key a segment-skipping opener filters by, and the serial
// fallback replays open(0) unfiltered.
func ShardedClassify(ctx context.Context, open func(shard int) (trace.Reader, error), procs int, g mem.Geometry, cfg Config, shards int) (core.Counts, uint64, error) {
	if shards < 1 || cfg.Policy == Random {
		shards = 1
	}
	classifiers := make([]*Classifier, shards)
	for i := range classifiers {
		c, err := NewClassifier(procs, g, cfg)
		if err != nil {
			return core.Counts{}, 0, err
		}
		classifiers[i] = c
	}
	// The constructor validated the geometry, so the set count is a
	// positive power of two.
	nsets := uint64(cfg.CapacityBytes / (cfg.Assoc * g.BlockBytes()))
	mask := nsets - 1
	key := func(ref trace.Ref) int {
		return int((uint64(g.BlockOf(ref.Addr)) & mask) % uint64(shards))
	}

	type res struct {
		counts core.Counts
		refs   uint64
	}
	out, err := core.RunShardedOpen(ctx, open, shards, key,
		func(i int) *Classifier { return classifiers[i] },
		func(c *Classifier) res { return res{counts: c.Finish(), refs: c.DataRefs()} },
		func(a, b res) res { return res{counts: a.counts.Add(b.counts), refs: a.refs + b.refs} })
	if err != nil {
		return core.Counts{}, 0, err
	}
	return out.counts, out.refs, nil
}
