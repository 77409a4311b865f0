package coherence

// Fused multi-protocol differential suite: one fused replay feeding every
// schedule at once must reproduce, protocol by protocol and bit for bit,
// the Results of independent per-protocol replays — serially and over
// shard-native streams at every shard count.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestFusedProtocolsMatchSerial is the headline differential: the fused
// pass equals RunWith for every schedule, geometry and shard count.
func TestFusedProtocolsMatchSerial(t *testing.T) {
	protos := shardedProtocols()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomSyncTrace(rng, 6, 700, 56)
		open := func(int) (trace.Reader, error) { return tr.Reader(), nil }
		for _, g := range []mem.Geometry{mem.MustGeometry(8), mem.MustGeometry(64)} {
			want := make([]Result, len(protos))
			for i, name := range protos {
				res, err := RunWith(name, tr.Reader(), g)
				if err != nil {
					t.Log(err)
					return false
				}
				want[i] = res
			}
			for _, n := range shardCounts {
				got, err := RunProtocolsShardedOpen(context.Background(), open, tr.Procs, g, protos, n)
				if err != nil {
					t.Log(err)
					return false
				}
				for i := range protos {
					if got[i] != want[i] {
						t.Logf("%s %v shards=%d:\n got %+v\nwant %+v", protos[i], g, n, got[i], want[i])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}
