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
// pass equals RunWith for every schedule, geometry and shard count, both
// one geometry at a time and with both geometries in one grid (partitioned
// by the coarser block size, as the §7 study runs it).
func TestFusedProtocolsMatchSerial(t *testing.T) {
	protos := shardedProtocols()
	geos := []mem.Geometry{mem.MustGeometry(8), mem.MustGeometry(64)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomSyncTrace(rng, 6, 700, 56)
		open := func(int) (trace.Reader, error) { return tr.Reader(), nil }
		var want []Result // geometry-major, like the grid's results
		for _, g := range geos {
			for _, name := range protos {
				res, err := RunWith(name, tr.Reader(), g)
				if err != nil {
					t.Log(err)
					return false
				}
				want = append(want, res)
			}
		}
		for _, n := range shardCounts {
			var got []Result
			for _, g := range geos {
				res, err := RunProtocolsShardedOpen(context.Background(), open, tr.Procs, []mem.Geometry{g}, protos, n, true)
				if err != nil {
					t.Log(err)
					return false
				}
				got = append(got, res...)
			}
			grid, err := RunProtocolsShardedOpen(context.Background(), open, tr.Procs, geos, protos, n, true)
			if err != nil {
				t.Log(err)
				return false
			}
			for i := range want {
				g := geos[i/len(protos)]
				if got[i] != want[i] || grid[i] != want[i] {
					t.Logf("%s %v shards=%d:\n got %+v\ngrid %+v\nwant %+v", protos[i%len(protos)], g, n, got[i], grid[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}
