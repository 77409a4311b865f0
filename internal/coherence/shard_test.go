package coherence

// Shard-invariance differential suite for the invalidation schedules: the
// block-sharded pipeline must reproduce the serial Result — misses,
// decomposition, invalidations, upgrades, write-throughs and updates —
// bit for bit for every schedule, including the delayed ones whose drain
// points (acquire/release) every shard's stream keeps.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/trace"
)

var shardCounts = []int{1, 2, 3, 8, 64}

// shardedProtocols is every schedule the differential suite must cover:
// the paper's seven plus the update-based extensions.
func shardedProtocols() []string {
	return append(append([]string{}, Protocols...), ExtensionProtocols...)
}

// runSharded replays tr through one protocol over shard-native streams.
func runSharded(name string, tr *trace.Trace, g mem.Geometry, shards int) (Result, error) {
	open := func(int) (trace.Reader, error) { return tr.Reader(), nil }
	res, err := RunProtocolsShardedOpen(context.Background(), open, tr.Procs, []mem.Geometry{g}, []string{name}, shards, true)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// TestShardedProtocolMatchesSerial checks, for every schedule and shard
// count, that the merged sharded Result equals the serial RunWith Result
// in every field.
func TestShardedProtocolMatchesSerial(t *testing.T) {
	for _, name := range shardedProtocols() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				tr := randomSyncTrace(rng, 6, 700, 56)
				for _, g := range []mem.Geometry{mem.MustGeometry(8), mem.MustGeometry(64)} {
					want, err := RunWith(name, tr.Reader(), g)
					if err != nil {
						t.Log(err)
						return false
					}
					for _, n := range shardCounts {
						got, err := runSharded(name, tr, g, n)
						if err != nil {
							t.Log(err)
							return false
						}
						if got != want {
							t.Logf("%s %v shards=%d:\n got %+v\nwant %+v", name, g, n, got, want)
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedProtocolCrossChecks re-asserts the paper's structural
// identities on MERGED results: MIN equals the essential count with no
// false sharing, OTF's decomposition equals the Appendix-A classification,
// and each protocol's internal miss counter matches its classified total.
func TestShardedProtocolCrossChecks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomSyncTrace(rng, 5, 600, 40)
		g := mem.MustGeometry(32)
		const n = 8
		minRes, err := runSharded("MIN", tr, g, n)
		if err != nil {
			t.Log(err)
			return false
		}
		otfRes, err := runSharded("OTF", tr, g, n)
		if err != nil {
			t.Log(err)
			return false
		}
		if minRes.Counts.PFS != 0 {
			t.Logf("sharded MIN has false sharing: %+v", minRes.Counts)
			return false
		}
		if minRes.Misses != otfRes.Counts.Essential() {
			t.Logf("sharded MIN misses %d != essential %d", minRes.Misses, otfRes.Counts.Essential())
			return false
		}
		for _, res := range []Result{minRes, otfRes} {
			if res.Misses != res.Counts.Total() {
				t.Logf("%s: miss counter %d != classified total %d", res.Protocol, res.Misses, res.Counts.Total())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedProtocolNamesMatchNew: the sharded runner accepts exactly the
// protocol names New accepts, and rejects any other name before opening a
// reader.
func TestShardedProtocolNamesMatchNew(t *testing.T) {
	tr := trace.New(2, trace.L(0, 0), trace.S(1, 0), trace.A(0, 64), trace.R(0, 64))
	g := mem.MustGeometry(16)
	for _, name := range append(shardedProtocols(), "BOGUS", "", "otf", "OTF ") {
		_, newErr := New(name, tr.Procs, g)
		for _, n := range []int{1, 3} {
			opened := false
			open := func(int) (trace.Reader, error) { opened = true; return tr.Reader(), nil }
			res, err := RunProtocolsShardedOpen(context.Background(), open, tr.Procs, []mem.Geometry{g}, []string{name}, n, true)
			switch {
			case (err == nil) != (newErr == nil):
				t.Errorf("%q shards=%d: sharded runner err = %v, New err = %v", name, n, err, newErr)
			case err != nil && opened:
				t.Errorf("%q shards=%d: reader opened for a rejected name", name, n)
			case err == nil && (len(res) != 1 || res[0].Protocol != name):
				t.Errorf("%q shards=%d: results %+v, want one %s result", name, n, res, name)
			}
		}
	}
}

// TestShardedUnknownProtocol pins the validation path: a set with an
// unknown name must fail before any reader is opened, and the empty set is
// a no-op, not an error.
func TestShardedUnknownProtocol(t *testing.T) {
	opened := false
	open := func(int) (trace.Reader, error) {
		opened = true
		return trace.New(2, trace.L(0, 0)).Reader(), nil
	}
	g := mem.MustGeometry(16)
	if _, err := RunProtocolsShardedOpen(context.Background(), open, 2, []mem.Geometry{g}, []string{"OTF", "BOGUS"}, 4, true); err == nil {
		t.Fatal("expected an error for an unknown protocol")
	}
	if opened {
		t.Error("reader opened despite an unknown protocol in the set")
	}
	res, err := RunProtocolsShardedOpen(context.Background(), open, 2, []mem.Geometry{g}, nil, 4, true)
	if err != nil || len(res) != 0 {
		t.Errorf("empty protocol set: got %v, %v", res, err)
	}
}
