package coherence

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// allocRefs mixes loads, stores, acquires and releases so every schedule
// exercises its miss and invalidation paths, and the delayed ones their
// acquire drains (RD, SRD) and release flushes (SD, SRD, MAX), on every
// pass.
func allocRefs(procs, blocks int, g mem.Geometry) []trace.Ref {
	refs := make([]trace.Ref, 0, 4096)
	stride := mem.Addr(g.BlockBytes() / mem.WordBytes)
	for i := 0; i < 4096; i++ {
		p := i % procs
		a := mem.Addr(i%blocks)*stride + mem.Addr(i%4)
		switch i % 7 {
		case 0:
			refs = append(refs, trace.S(p, a))
		case 3:
			refs = append(refs, trace.A(p, 1))
		case 5:
			refs = append(refs, trace.R(p, 1))
		default:
			refs = append(refs, trace.L(p, a))
		}
	}
	return refs
}

// TestSchedulesSteadyStateAllocs pins every schedule's hot path to zero
// steady-state allocations: the dense block table, the lifetime records and
// the per-processor buffers (drained with retained capacity at each acquire
// or release) must absorb a warmed-up pass without touching the heap. The
// rates-only subtests pin the same for the simulator without its lifetime
// engine.
func TestSchedulesSteadyStateAllocs(t *testing.T) {
	steady := func(t *testing.T, sim Simulator, refs []trace.Ref) {
		t.Helper()
		bc := sim.(trace.BatchConsumer)
		bc.RefBatch(refs) // warm up: block table, lifetime records, buffer capacities

		const ceiling = 0.0
		got := testing.AllocsPerRun(10, func() { bc.RefBatch(refs) })
		if got > ceiling {
			t.Fatalf("%s steady state allocates %.1f allocs per pass, ceiling %.1f", sim.Name(), got, ceiling)
		}
	}
	for _, name := range append(append([]string{}, Protocols...), ExtensionProtocols...) {
		for _, block := range []int{64, 1024} {
			t.Run(fmt.Sprintf("%s/B=%d", name, block), func(t *testing.T) {
				g := mem.MustGeometry(block)
				refs := allocRefs(4, 64, g)
				fresh := func(t *testing.T) Simulator {
					sim, err := New(name, 4, g)
					if err != nil {
						t.Fatal(err)
					}
					return sim
				}
				steady(t, fresh(t), refs)
				t.Run("rates-only", func(t *testing.T) { steady(t, RatesOnly(fresh(t)), refs) })
			})
		}
	}
}
