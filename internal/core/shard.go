package core

import (
	"context"
	"errors"
	"sync"

	"repro/internal/mem"
	"repro/internal/obs/span"
	"repro/internal/trace"
)

// This file implements the consumer side of the block-sharded
// classification pipeline: a pool of per-shard consumer goroutines, each
// driving its own shard-native stream, with a deterministic merge of the
// per-shard results.
//
// The classifiers' and simulators' state — presence masks, lifetimes,
// communication bases, per-word definitions — is keyed entirely by
// mem.Block, and their counts are additive over any partition of the block
// space. Partitioning the data references by block therefore splits one
// consumer into independent machines whose merged counts equal the serial
// run's, bit for bit, for every shard count (the shard-invariance test
// suite and FuzzShardedEquivalence enforce this). Every shard's
// trace.ShardReader keeps every synchronization and phase reference, so
// schedule-sensitive consumers see the same synchronization points.

// RunShardedOpen partitions the data references of one trace across
// shards consumers and merges their results in shard order. Each shard
// opens its own reader via open(shard) (a fresh deterministic generation,
// an independent reader over a cached trace, or a packed trace-store
// reader that skips segments with nothing for the shard) and filters it
// down to its subsequence under key with a trace.ShardReader, so shards
// share no goroutine and no channel.
// newConsumer(i) builds shard i's consumer (called before any reference
// flows), finish extracts a shard's result, and merge folds two results
// together (it must be associative; the fold is left-to-right from shard
// 0).
//
// open(i) must produce a stream that contains at least shard i's
// subsequence under key, in stream order — the full trace always
// qualifies, and openers may pre-drop references other shards own (the
// trace-store segment skip). With shards <= 1 a single reader is opened
// via open(0) and driven inline, unfiltered — the exact serial path.
//
// The first shard failure cancels the siblings, every shard goroutine has
// exited and every opened reader is closed before RunShardedOpen returns.
// The error reported is the caller's context error if it is done, else
// the first real failure, else the cancellation a sibling induced.
func RunShardedOpen[C trace.Consumer, R any](
	ctx context.Context,
	open func(shard int) (trace.Reader, error),
	shards int,
	key trace.ShardFunc,
	newConsumer func(shard int) C,
	finish func(C) R,
	merge func(R, R) R,
) (R, error) {
	var zero R
	if shards <= 1 {
		r, err := open(0)
		if err != nil {
			return zero, err
		}
		c := newConsumer(0)
		if err := trace.DriveContext(ctx, r, c); err != nil {
			return zero, err
		}
		return finish(c), nil
	}

	readers := make([]trace.Reader, shards)
	for i := range readers {
		r, err := open(i)
		if err != nil {
			for _, r := range readers[:i] {
				trace.CloseReader(r) //nolint:errcheck // error-path cleanup
			}
			return zero, err
		}
		readers[i] = trace.NewShardReader(r, i, key)
	}
	consumers := make([]C, shards)
	for i := range consumers {
		consumers[i] = newConsumer(i)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each shard consumer gets its own span track (single-writer)
			// and a shard.consume span over its whole drive.
			tr := span.Acquiref("shard-consumer", i)
			defer span.Release(tr)
			defer tr.Begin(span.OpShardConsume, span.Fields{Shard: int32(i)}).End()
			if err := trace.DriveContext(span.NewContext(runCtx, tr), readers[i], consumers[i]); err != nil {
				errs[i] = err
				// First failure cancels the siblings so they stop instead
				// of classifying a replay that already failed.
				cancel()
			}
		}(i)
	}
	wg.Wait()

	if e := ctx.Err(); e != nil {
		return zero, e
	}
	// A shard canceled by a sibling's failure reports the derived context's
	// error (or ErrStopped from a closed generator); the real failure beats
	// it.
	var induced error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, trace.ErrStopped) {
			if induced == nil {
				induced = err
			}
			continue
		}
		return zero, err
	}
	if induced != nil {
		return zero, induced
	}

	acc := finish(consumers[0])
	for i := 1; i < shards; i++ {
		acc = merge(acc, finish(consumers[i]))
	}
	return acc, nil
}

// ShardedClassify runs the paper's Appendix A classification with the
// block space partitioned across shards parallel classifiers, each driving
// its own reader from open (see RunShardedOpen). The counts and the
// data-reference count are identical to Classify's for every shard count;
// shards <= 1 is exactly Classify over open(0).
func ShardedClassify(ctx context.Context, open func(shard int) (trace.Reader, error), procs int, g mem.Geometry, shards int) (Counts, uint64, error) {
	type res struct {
		counts Counts
		refs   uint64
	}
	out, err := RunShardedOpen(ctx, open, shards, trace.BlockShard(g, shards),
		func(int) *Classifier { return NewClassifier(procs, g) },
		func(c *Classifier) res { return res{counts: c.Finish(), refs: c.DataRefs()} },
		func(a, b res) res { return res{counts: a.counts.Add(b.counts), refs: a.refs + b.refs} })
	if err != nil {
		return Counts{}, 0, err
	}
	return out.counts, out.refs, nil
}
