package core

// The shard-invariance differential suite for the classifiers: the
// block-sharded pipeline must produce byte-identical counts to the serial
// classifier for every shard count, every classification scheme, and every
// partition of the block space — the property that makes the sharded
// pipeline a drop-in replacement for the hot path.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/trace"
)

// shardCounts is the shard-count grid the differential suite sweeps,
// bracketing the interesting cases: serial (1), tiny pools, a typical pool
// (8), and more shards than blocks in most of the random traces (64).
var shardCounts = []int{1, 2, 3, 8, 64}

// quickConf bounds a differential property's iteration count so the full
// {scheme x shards x geometry} sweep stays fast.
func quickConf(n int) *quick.Config { return &quick.Config{MaxCount: n} }

// randomMixedTrace interleaves contended data references with sync and
// phase references, which every shard's stream must keep.
func randomMixedTrace(rng *rand.Rand, procs, n, addrRange int) *trace.Trace {
	tr := trace.New(procs)
	for i := 0; i < n; i++ {
		p := rng.Intn(procs)
		switch rng.Intn(12) {
		case 0:
			tr.Append(trace.A(p, mem.Addr(addrRange+rng.Intn(4))))
		case 1:
			tr.Append(trace.R(p, mem.Addr(addrRange+rng.Intn(4))))
		case 2:
			tr.Append(trace.P())
		case 3, 4, 5:
			tr.Append(trace.S(p, mem.Addr(rng.Intn(addrRange))))
		default:
			tr.Append(trace.L(p, mem.Addr(rng.Intn(addrRange))))
		}
	}
	return tr
}

// wholeTrace opens an independent reader over all of tr for every shard.
func wholeTrace(tr *trace.Trace) func(int) (trace.Reader, error) {
	return func(int) (trace.Reader, error) { return tr.Reader(), nil }
}

// shardedSharing runs a sharing classifier (Eggers or Torrellas) over
// shard-native streams of tr, block-partitioned n ways.
func shardedSharing[C interface {
	trace.Consumer
	Finish() SharingCounts
	DataRefs() uint64
}](tr *trace.Trace, g mem.Geometry, n int, newC func(procs int, g mem.Geometry) C) (SharingCounts, uint64, error) {
	type res struct {
		counts SharingCounts
		refs   uint64
	}
	out, err := RunShardedOpen(context.Background(), wholeTrace(tr), n, trace.BlockShard(g, n),
		func(int) C { return newC(tr.Procs, g) },
		func(c C) res { return res{c.Finish(), c.DataRefs()} },
		func(a, b res) res { return res{a.counts.Add(b.counts), a.refs + b.refs} })
	return out.counts, out.refs, err
}

func shardGeometries() []mem.Geometry {
	return []mem.Geometry{
		mem.MustGeometry(4),
		mem.MustGeometry(16),
		mem.MustGeometry(64),
	}
}

// TestShardedClassifyMatchesSerial is the headline differential property:
// the Appendix A classification sharded N ways equals the serial run in
// every one of the five classes, for N in {1, 2, 3, 8, 64}.
func TestShardedClassifyMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMixedTrace(rng, 6, 800, 64)
		for _, g := range shardGeometries() {
			want, wantRefs, err := Classify(tr.Reader(), g)
			if err != nil {
				t.Log(err)
				return false
			}
			for _, n := range shardCounts {
				got, refs, err := ShardedClassify(context.Background(), wholeTrace(tr), tr.Procs, g, n)
				if err != nil {
					t.Log(err)
					return false
				}
				if got != want || refs != wantRefs {
					t.Logf("%v shards=%d: got %+v (%d refs), want %+v (%d refs)",
						g, n, got, refs, want, wantRefs)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickConf(12)); err != nil {
		t.Fatal(err)
	}
}

// TestShardedEggersMatchesSerial checks Eggers' scheme shard-invariant.
func TestShardedEggersMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMixedTrace(rng, 6, 800, 64)
		for _, g := range shardGeometries() {
			want, wantRefs, err := ClassifyEggers(tr.Reader(), g)
			if err != nil {
				t.Log(err)
				return false
			}
			for _, n := range shardCounts {
				got, refs, err := shardedSharing(tr, g, n, NewEggers)
				if err != nil {
					t.Log(err)
					return false
				}
				if got != want || refs != wantRefs {
					t.Logf("%v shards=%d: got %+v, want %+v", g, n, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickConf(12)); err != nil {
		t.Fatal(err)
	}
}

// TestShardedTorrellasMatchesSerial checks Torrellas' scheme, whose
// word-level state must shard with the blocks containing the words.
func TestShardedTorrellasMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMixedTrace(rng, 6, 800, 64)
		for _, g := range shardGeometries() {
			want, wantRefs, err := ClassifyTorrellas(tr.Reader(), g)
			if err != nil {
				t.Log(err)
				return false
			}
			for _, n := range shardCounts {
				got, refs, err := shardedSharing(tr, g, n, NewTorrellas)
				if err != nil {
					t.Log(err)
					return false
				}
				if got != want || refs != wantRefs {
					t.Logf("%v shards=%d: got %+v, want %+v", g, n, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickConf(12)); err != nil {
		t.Fatal(err)
	}
}

// allClassesTrace produces every one of the five miss classes at B=8
// (2 words per block): the differential properties above then cannot pass
// vacuously on traces missing a class.
func allClassesTrace() *trace.Trace {
	return trace.New(3,
		// P0 loads block 0 untouched: PC when the lifetime closes.
		trace.L(0, 0),
		// P1 stores word 1 of block 0, invalidating P0 (classifies P0's
		// PC), then P0 misses again and reads the new value: PTS.
		trace.S(1, 1),
		trace.L(0, 1),
		// P1 stores word 0; P0's copy dies again; P0 refetches but only
		// touches word 1, which P1 did not redefine: PFS.
		trace.S(1, 0),
		trace.L(0, 1),
		trace.S(1, 0),
		// P2's first miss lands on a modified block and reads a
		// communicated word: CTS.
		trace.L(2, 0),
		// Block 2 (words 4-5): P1 modifies it first, then P2's cold miss
		// touches only the word P1 never wrote: CFS.
		trace.S(1, 4),
		trace.L(2, 5),
	)
}

// TestShardedCoversAllFiveClasses pins that the all-classes trace indeed
// produces PC, CTS, CFS, PTS and PFS, and that every shard count
// reproduces the same nonzero split.
func TestShardedCoversAllFiveClasses(t *testing.T) {
	g := mem.MustGeometry(8)
	tr := allClassesTrace()
	want, refs, err := Classify(tr.Reader(), g)
	if err != nil {
		t.Fatal(err)
	}
	if want.PC == 0 || want.CTS == 0 || want.CFS == 0 || want.PTS == 0 || want.PFS == 0 {
		t.Fatalf("trace does not cover all five classes: %+v", want)
	}
	for _, n := range shardCounts {
		got, gotRefs, err := ShardedClassify(context.Background(), wholeTrace(tr), tr.Procs, g, n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || gotRefs != refs {
			t.Errorf("shards=%d: got %+v, want %+v", n, got, want)
		}
	}
}

// TestArbitraryBlockPartitionSumsToWhole is the merge-soundness property in
// its strongest form: not just the canonical block%N partition but ANY
// partition of the block space — here a seeded random assignment — must sum
// to the whole-trace counts.
func TestArbitraryBlockPartitionSumsToWhole(t *testing.T) {
	f := func(seed int64, keySeed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMixedTrace(rng, 5, 600, 48)
		g := mem.MustGeometry(16)
		want, wantRefs, err := Classify(tr.Reader(), g)
		if err != nil {
			t.Log(err)
			return false
		}
		const n = 7
		// A random but deterministic block->shard assignment.
		key := func(r trace.Ref) int {
			h := uint64(g.BlockOf(r.Addr))*0x9e3779b97f4a7c15 + uint64(keySeed)
			return int((h >> 33) % n)
		}
		procs := tr.Procs
		type res struct {
			counts Counts
			refs   uint64
		}
		got, err := RunShardedOpen(context.Background(), wholeTrace(tr), n, key,
			func(int) *Classifier { return NewClassifier(procs, g) },
			func(c *Classifier) res { return res{c.Finish(), c.DataRefs()} },
			func(a, b res) res { return res{a.counts.Add(b.counts), a.refs + b.refs} })
		if err != nil {
			t.Log(err)
			return false
		}
		if got.counts != want || got.refs != wantRefs {
			t.Logf("random partition: got %+v (%d refs), want %+v (%d refs)",
				got.counts, got.refs, want, wantRefs)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickConf(20)); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMergeInvariants checks the paper's accounting identities on
// the MERGED counts — essential = cold + PTS, essential <= total — and
// that sharding conserves the data-reference denominator exactly.
func TestShardedMergeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMixedTrace(rng, 6, 700, 56)
		g := mem.MustGeometry(32)
		for _, n := range shardCounts {
			counts, refs, err := ShardedClassify(context.Background(), wholeTrace(tr), tr.Procs, g, n)
			if err != nil {
				t.Log(err)
				return false
			}
			if counts.Essential() != counts.Cold()+counts.PTS {
				t.Logf("shards=%d: essential %d != cold %d + PTS %d",
					n, counts.Essential(), counts.Cold(), counts.PTS)
				return false
			}
			if counts.Essential() > counts.Total() {
				t.Logf("shards=%d: essential %d > total %d", n, counts.Essential(), counts.Total())
				return false
			}
			if refs != tr.DataRefs() {
				t.Logf("shards=%d: sharding lost data refs: %d of %d", n, refs, tr.DataRefs())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConf(15)); err != nil {
		t.Fatal(err)
	}
}
