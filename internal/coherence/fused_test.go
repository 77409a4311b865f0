package coherence

// Fused multi-protocol differential suite: one fused replay feeding every
// schedule at once must reproduce, protocol by protocol and bit for bit,
// the Results of independent per-protocol replays.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/trace"
)

// allProtocols is every schedule the differential suite must cover: the
// paper's seven plus the update-based extensions.
func allProtocols() []string {
	return append(append([]string{}, Protocols...), ExtensionProtocols...)
}

// TestFusedProtocolsMatchSerial is the headline differential: the fused
// pass equals RunWith for every schedule and geometry, both one geometry at
// a time and with both geometries in one grid (as the §7 study runs it).
func TestFusedProtocolsMatchSerial(t *testing.T) {
	protos := allProtocols()
	geos := []mem.Geometry{mem.MustGeometry(8), mem.MustGeometry(64)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomSyncTrace(rng, 6, 700, 56)
		open := func() (trace.Reader, error) { return tr.Reader(), nil }
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
		var got []Result
		for _, g := range geos {
			res, err := RunProtocols(context.Background(), open, tr.Procs, []mem.Geometry{g}, protos, true)
			if err != nil {
				t.Log(err)
				return false
			}
			got = append(got, res...)
		}
		grid, err := RunProtocols(context.Background(), open, tr.Procs, geos, protos, true)
		if err != nil {
			t.Log(err)
			return false
		}
		for i := range want {
			g := geos[i/len(protos)]
			if got[i] != want[i] || grid[i] != want[i] {
				t.Logf("%s %v:\n got %+v\ngrid %+v\nwant %+v", protos[i%len(protos)], g, got[i], grid[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestRunProtocolsNamesMatchNew: the fused runner accepts exactly the
// protocol names New accepts, and rejects any other name before opening a
// reader.
func TestRunProtocolsNamesMatchNew(t *testing.T) {
	tr := trace.New(2, trace.L(0, 0), trace.S(1, 0), trace.A(0, 64), trace.R(0, 64))
	g := mem.MustGeometry(16)
	for _, name := range append(allProtocols(), "BOGUS", "", "otf", "OTF ") {
		_, newErr := New(name, tr.Procs, g)
		opened := false
		open := func() (trace.Reader, error) { opened = true; return tr.Reader(), nil }
		res, err := RunProtocols(context.Background(), open, tr.Procs, []mem.Geometry{g}, []string{name}, true)
		switch {
		case (err == nil) != (newErr == nil):
			t.Errorf("%q: RunProtocols err = %v, New err = %v", name, err, newErr)
		case err != nil && opened:
			t.Errorf("%q: reader opened for a rejected name", name)
		case err == nil && (len(res) != 1 || res[0].Protocol != name):
			t.Errorf("%q: results %+v, want one %s result", name, res, name)
		}
	}
}

// TestRunProtocolsUnknownProtocol pins the validation path: a set with an
// unknown name must fail before any reader is opened, and the empty set is
// a no-op, not an error.
func TestRunProtocolsUnknownProtocol(t *testing.T) {
	opened := false
	open := func() (trace.Reader, error) {
		opened = true
		return trace.New(2, trace.L(0, 0)).Reader(), nil
	}
	g := mem.MustGeometry(16)
	if _, err := RunProtocols(context.Background(), open, 2, []mem.Geometry{g}, []string{"OTF", "BOGUS"}, true); err == nil {
		t.Fatal("expected an error for an unknown protocol")
	}
	if opened {
		t.Error("reader opened despite an unknown protocol in the set")
	}
	res, err := RunProtocols(context.Background(), open, 2, []mem.Geometry{g}, nil, true)
	if err != nil || len(res) != 0 {
		t.Errorf("empty protocol set: got %v, %v", res, err)
	}
}
