// Package trace defines the memory-reference trace model used throughout the
// library: a trace is a sequence of references, each issued by a processor
// and tagged as a data load, data store, synchronization acquire/release, or
// a phase annotation. Traces can live in memory, stream from generators, or
// round-trip through the human-readable text format; the binary storage
// format is the packed trace store (package tracestore).
//
// The paper's methodology is trace-driven simulation (its §5): the same
// interleaved trace is replayed under different invalidation schedules so
// that scheduling effects are not confounded with changes to the execution.
package trace

import (
	"fmt"

	"repro/internal/mem"
)

// Kind is the type of a trace reference.
type Kind uint8

const (
	// Load is a data read of one word.
	Load Kind = iota
	// Store is a data write of one word.
	Store
	// Acquire is a synchronization acquire (lock acquisition, barrier
	// entry). Addr identifies the synchronization variable.
	Acquire
	// Release is a synchronization release (lock release, barrier exit).
	Release
	// Phase marks the end of a global computation phase. It is an
	// annotation emitted by workload generators: simulators and
	// classifiers ignore it; the statistics collector uses it to model
	// the parallel critical path (Table 2 speedups).
	Phase
	numKinds
)

// String implements fmt.Stringer with the mnemonics used by the text codec.
func (k Kind) String() string {
	switch k {
	case Load:
		return "LD"
	case Store:
		return "ST"
	case Acquire:
		return "ACQ"
	case Release:
		return "REL"
	case Phase:
		return "PH"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsData reports whether the kind is a data reference (load or store).
// Only data references enter miss-rate denominators and the classifiers.
func (k Kind) IsData() bool { return k == Load || k == Store }

// IsSync reports whether the kind is a synchronization reference.
func (k Kind) IsSync() bool { return k == Acquire || k == Release }

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool { return k < numKinds }

// Ref is a single trace reference.
type Ref struct {
	// Addr is the word address referenced. For Phase it is unused.
	Addr mem.Addr
	// Proc is the issuing processor, in [0, NumProcs).
	Proc uint16
	// Kind is the reference type.
	Kind Kind
}

// String implements fmt.Stringer in the text-codec line format.
func (r Ref) String() string {
	if r.Kind == Phase {
		return "PH"
	}
	return fmt.Sprintf("P%d %s %d", r.Proc, r.Kind, r.Addr)
}

// L, S, A, R and P are terse constructors used heavily by tests and by the
// paper-figure example traces.

// L returns a Load by proc at addr.
func L(proc int, addr mem.Addr) Ref { return Ref{Proc: uint16(proc), Kind: Load, Addr: addr} }

// S returns a Store by proc at addr.
func S(proc int, addr mem.Addr) Ref { return Ref{Proc: uint16(proc), Kind: Store, Addr: addr} }

// A returns an Acquire by proc on the sync variable at addr.
func A(proc int, addr mem.Addr) Ref { return Ref{Proc: uint16(proc), Kind: Acquire, Addr: addr} }

// R returns a Release by proc on the sync variable at addr.
func R(proc int, addr mem.Addr) Ref { return Ref{Proc: uint16(proc), Kind: Release, Addr: addr} }

// P returns a Phase marker.
func P() Ref { return Ref{Kind: Phase} }
