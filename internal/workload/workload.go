// Package workload generates synthetic reference traces that stand in for
// the paper's benchmark traces (§5): MP3D, WATER, LU and JACOBI, each in the
// paper's two data-set sizes, for 16 processors.
//
// The original traces were captured from SPLASH programs with the CacheMire
// test bench and are not available; these generators model instead the very
// properties the paper's analysis (§6) attributes every figure to — object
// sizes and memory layout (36-byte particles, 48-byte space cells, 680-byte
// molecules with a 72-byte inter-molecular write region, column-major
// matrices, row-major grids split into 16x16 subgrids), the assignment of
// objects to processors (fine interleaving in MP3D and LU, subgrids in
// JACOBI), the synchronization structure (locks around shared updates, an
// ANL-style barrier whose counter and flag live in consecutive words), and
// the per-benchmark reference volumes of Table 2. Absolute miss counts
// differ from the 1993 runs; the block-size shapes and protocol rankings
// carry over because they are driven by exactly this structure.
//
// All generators are deterministic: the same workload always produces the
// same trace.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/trace"
)

// DefaultProcs is the processor count used by all the paper's runs.
const DefaultProcs = 16

// Workload is a named deterministic trace generator.
type Workload struct {
	// Name is the paper's name for the run, e.g. "MP3D1000".
	Name string
	// Description summarizes the modeled computation.
	Description string
	// Procs is the number of processors.
	Procs int
	// DataBytes is the shared-data footprint laid out by the generator.
	DataBytes uint64
	// Regions names the data structures in the layout, in address order.
	// Miss-attribution analyses use them to answer "which structure
	// causes the false sharing" — the question §6 answers narratively.
	Regions []Region
	gen     func(*trace.Emitter)
}

// Region is a named address range [Start, End) in words.
type Region struct {
	Name       string
	Start, End mem.Addr
}

// Contains reports whether the word address lies in the region.
func (r Region) Contains(a mem.Addr) bool { return a >= r.Start && a < r.End }

// RegionOf returns the name of the region containing a, or "other".
func (w *Workload) RegionOf(a mem.Addr) string {
	for _, r := range w.Regions {
		if r.Contains(a) {
			return r.Name
		}
	}
	return "other"
}

// Reader returns a streaming reader over a fresh generation of the trace.
// Close it if it is not drained.
func (w *Workload) Reader() trace.Reader {
	return trace.Generate(w.Procs, w.gen)
}

// Collect generates the whole trace into memory. Use only for the small
// data-set workloads; the large ones run to tens of millions of references.
func (w *Workload) Collect() (*trace.Trace, error) {
	return trace.Collect(w.Reader())
}

// registry maps workload names to constructors. Construction is cheap; the
// expensive part is draining the reader.
var registry = map[string]func() *Workload{
	"MP3D1000":  func() *Workload { return MP3D(1000, 20, DefaultProcs) },
	"MP3D10000": func() *Workload { return MP3D(10000, 10, DefaultProcs) },
	"WATER16":   func() *Workload { return Water(16, 10, DefaultProcs) },
	"WATER288":  func() *Workload { return Water(288, 4, DefaultProcs) },
	"LU32":      func() *Workload { return LU(32, DefaultProcs) },
	"LU200":     func() *Workload { return LU(200, DefaultProcs) },
	"JACOBI":    func() *Workload { return Jacobi(64, 34, DefaultProcs) },
}

// Get returns the named workload (see Names).
func Get(name string) (*Workload, error) {
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	return ctor(), nil
}

// Names lists the registered workloads in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SmallSet lists the small-data-set runs used in Figs. 5 and 6.
func SmallSet() []string { return []string{"LU32", "MP3D1000", "WATER16", "JACOBI"} }

// LargeSet lists the large-data-set runs discussed in §7 and Table 1.
func LargeSet() []string { return []string{"LU200", "MP3D10000", "WATER288"} }

// unit is one small batch of work by one processor: the interleaving grain.
// It returns false when the processor has no more units in this phase.
type unit func() bool

// roundRobin interleaves the processors' units: one unit per processor per
// round, processors in index order, until all are exhausted. Within a phase
// this produces the fine deterministic interleaving the trace-driven
// methodology needs; each processor's program order is preserved.
func roundRobin(units []unit) {
	remaining := len(units)
	done := make([]bool, len(units))
	for remaining > 0 {
		for p, u := range units {
			if done[p] {
				continue
			}
			if !u() {
				done[p] = true
				remaining--
			}
		}
	}
}

// counter builds a unit that invokes fn with 0, 1, ..., n-1, one call per
// round.
func counter(n int, fn func(i int)) unit {
	i := 0
	return func() bool {
		if i >= n {
			return false
		}
		fn(i)
		i++
		return true
	}
}

// mix is a splitmix64-style integer hash used for deterministic
// pseudo-random assignment (e.g. which space cell a particle occupies).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
