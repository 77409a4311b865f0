package trace_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

// FuzzShardedEquivalence lives in the external test package so it can drive
// the classifiers in internal/core through core.RunShardedOpen without an
// import cycle. Arbitrary byte strings are decoded into mixed
// data/sync/phase traces and the shard-native pipeline is checked against
// the serial classifier for all three classification schemes. The committed seed corpus under
// testdata/fuzz/FuzzShardedEquivalence is pinned by TestFuzzSeedCorpora.
func FuzzShardedEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint8(2))
	f.Add([]byte{5, 0, 9, 0, 1, 9, 6, 0, 9}, uint8(1), uint8(7))
	f.Add([]byte{}, uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, procsRaw, shardsRaw uint8) {
		procs := int(procsRaw%6) + 2
		g := mem.MustGeometry(4 << (procsRaw % 4)) // 4..32-byte blocks
		tr := trace.New(procs)
		for i := 0; i+2 < len(data); i += 3 {
			p := int(data[i+1]) % procs
			addr := mem.Addr(data[i+2])
			switch data[i] % 8 {
			case 0, 1, 2:
				tr.Append(trace.L(p, addr))
			case 3, 4:
				tr.Append(trace.S(p, addr))
			case 5:
				tr.Append(trace.A(p, addr))
			case 6:
				tr.Append(trace.R(p, addr))
			default:
				tr.Append(trace.P())
			}
		}

		shardGrid := []int{2, int(shardsRaw%9) + 1}

		type result struct {
			counts any
			refs   uint64
		}
		pair := func(counts any, refs uint64, err error) (result, error) { return result{counts, refs}, err }
		for _, sc := range []struct {
			name    string
			serial  func() (result, error)
			sharded func(n int) (result, error)
		}{
			{"ours",
				func() (result, error) { return pair(core.Classify(tr.Reader(), g)) },
				func(n int) (result, error) { return pair(shardedRun[core.Counts](tr, g, n, core.NewClassifier)) }},
			{"eggers",
				func() (result, error) { return pair(core.ClassifyEggers(tr.Reader(), g)) },
				func(n int) (result, error) { return pair(shardedRun[core.SharingCounts](tr, g, n, core.NewEggers)) }},
			{"torrellas",
				func() (result, error) { return pair(core.ClassifyTorrellas(tr.Reader(), g)) },
				func(n int) (result, error) { return pair(shardedRun[core.SharingCounts](tr, g, n, core.NewTorrellas)) }},
		} {
			want, err := sc.serial()
			if err != nil {
				t.Fatalf("%s serial: %v", sc.name, err)
			}
			for _, n := range shardGrid {
				got, err := sc.sharded(n)
				if err != nil {
					t.Fatalf("%s shards=%d: %v", sc.name, n, err)
				}
				if got != want {
					t.Fatalf("%s shards=%d: got %+v, want %+v", sc.name, n, got, want)
				}
			}
		}
	})
}

// shardedRun classifies tr over n shard-native streams — one consumer
// built by newC per shard, each filtering its own reader of tr — and merges
// the per-shard counts.
func shardedRun[K interface{ Add(K) K }, C interface {
	trace.Consumer
	Finish() K
	DataRefs() uint64
}](tr *trace.Trace, g mem.Geometry, n int, newC func(int, mem.Geometry) C) (K, uint64, error) {
	type res struct {
		counts K
		refs   uint64
	}
	open := func(int) (trace.Reader, error) { return tr.Reader(), nil }
	out, err := core.RunShardedOpen(context.Background(), open, n, trace.BlockShard(g, n),
		func(int) C { return newC(tr.Procs, g) },
		func(c C) res { return res{c.Finish(), c.DataRefs()} },
		func(a, b res) res { return res{a.counts.Add(b.counts), a.refs + b.refs} })
	return out.counts, out.refs, err
}
