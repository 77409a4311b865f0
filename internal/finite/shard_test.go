package finite

// Shard-invariance differential suite for the finite-cache classifier: the
// set-respecting partition must reproduce the serial counts — including
// the Repl component — for LRU and FIFO; the Random policy's global
// xorshift stream is not block-decomposable and must fall back to serial.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

func randomFiniteTrace(rng *rand.Rand, procs, n, addrRange int) *trace.Trace {
	tr := trace.New(procs)
	for i := 0; i < n; i++ {
		p := rng.Intn(procs)
		switch rng.Intn(8) {
		case 0, 1:
			tr.Append(trace.S(p, mem.Addr(rng.Intn(addrRange))))
		default:
			tr.Append(trace.L(p, mem.Addr(rng.Intn(addrRange))))
		}
	}
	return tr
}

// shardedClassify runs ShardedClassify with every shard replaying its own
// reader over the whole of tr.
func shardedClassify(tr *trace.Trace, g mem.Geometry, cfg Config, shards int) (core.Counts, uint64, error) {
	open := func(int) (trace.Reader, error) { return tr.Reader(), nil }
	return ShardedClassify(context.Background(), open, tr.Procs, g, cfg, shards)
}

// TestShardedFiniteMatchesSerial sweeps policies, capacities and shard
// counts; the address range is sized well past the capacities so
// replacements actually happen.
func TestShardedFiniteMatchesSerial(t *testing.T) {
	g := mem.MustGeometry(16) // 4 words per block
	configs := []Config{
		{CapacityBytes: 128, Assoc: 2, Policy: LRU},  // 4 sets
		{CapacityBytes: 256, Assoc: 4, Policy: LRU},  // 4 sets
		{CapacityBytes: 128, Assoc: 1, Policy: FIFO}, // 8 sets
		{CapacityBytes: 64, Assoc: 4, Policy: LRU},   // 1 set: everything on shard 0
		{CapacityBytes: 256, Assoc: 2, Policy: Random},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomFiniteTrace(rng, 4, 900, 512)
		for _, cfg := range configs {
			want, wantRefs, err := Classify(tr.Reader(), g, cfg)
			if err != nil {
				t.Log(err)
				return false
			}
			if cfg.Policy != Random && want.Repl == 0 {
				t.Logf("%+v: no replacement misses; trace too small to exercise eviction", cfg)
				return false
			}
			for _, n := range []int{1, 2, 3, 8, 64} {
				got, refs, err := shardedClassify(tr, g, cfg, n)
				if err != nil {
					t.Log(err)
					return false
				}
				if got != want || refs != wantRefs {
					t.Logf("%+v shards=%d: got %+v, want %+v", cfg, n, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedFiniteEssentialInvariant: replacement misses are essential, so
// essential = cold + PTS + Repl <= total on merged counts at any shards.
func TestShardedFiniteEssentialInvariant(t *testing.T) {
	g := mem.MustGeometry(16)
	cfg := Config{CapacityBytes: 128, Assoc: 2, Policy: LRU}
	rng := rand.New(rand.NewSource(7))
	tr := randomFiniteTrace(rng, 4, 1200, 512)
	for _, n := range []int{1, 4, 16} {
		counts, refs, err := shardedClassify(tr, g, cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		if counts.Essential() != counts.Cold()+counts.PTS+counts.Repl {
			t.Fatalf("shards=%d: essential %d != cold+PTS+Repl", n, counts.Essential())
		}
		if counts.Essential() > counts.Total() {
			t.Fatalf("shards=%d: essential %d > total %d", n, counts.Essential(), counts.Total())
		}
		if refs != tr.DataRefs() {
			t.Fatalf("shards=%d: data refs not conserved: %d of %d", n, refs, tr.DataRefs())
		}
	}
}

// TestShardedFiniteRandomFallsBackToSerial pins the Random-policy contract
// directly: the global xorshift stream is not block-decomposable, so every
// shard count must take the serial fallback and reproduce Classify's counts
// bit for bit, on a trace small enough to overflow the cache (Repl > 0) so
// the eviction stream is actually exercised.
func TestShardedFiniteRandomFallsBackToSerial(t *testing.T) {
	g := mem.MustGeometry(16)
	cfg := Config{CapacityBytes: 128, Assoc: 2, Policy: Random}
	rng := rand.New(rand.NewSource(42))
	tr := randomFiniteTrace(rng, 4, 1500, 1024)

	want, wantRefs, err := Classify(tr.Reader(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Repl == 0 {
		t.Fatal("trace never evicted; Random stream untested")
	}
	for _, shards := range []int{1, 2, 4, 8, 64} {
		for rep := 0; rep < 2; rep++ { // twice: the seeded stream must replay identically
			got, refs, err := shardedClassify(tr, g, cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || refs != wantRefs {
				t.Fatalf("shards=%d rep=%d: got %+v (%d refs), want %+v (%d refs)",
					shards, rep, got, refs, want, wantRefs)
			}
		}
	}
}

// TestShardedFiniteBadConfig pins the error path: an invalid cache shape
// must surface before any reader is opened or any goroutine starts.
func TestShardedFiniteBadConfig(t *testing.T) {
	opened := false
	open := func(int) (trace.Reader, error) {
		opened = true
		return trace.New(2, trace.L(0, 0)).Reader(), nil
	}
	g := mem.MustGeometry(16)
	if _, _, err := ShardedClassify(context.Background(), open, 2, g, Config{CapacityBytes: 100, Assoc: 3}, 4); err == nil {
		t.Fatal("expected an error for a non-power-of-two cache shape")
	}
	if opened {
		t.Error("reader opened despite an invalid cache shape")
	}
}
