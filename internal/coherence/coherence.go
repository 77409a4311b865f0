// Package coherence simulates the paper's seven invalidation schedules over
// reference traces (§4): the write-through word-invalidate minimum (MIN),
// the plain on-the-fly schedule (OTF), receive-delayed (RD), send-delayed
// (SD), send-and-receive-delayed (SRD), write-back word-invalidate (WBWI),
// and the worst-case schedule consistent with release consistency (MAX).
//
// All simulators model infinite caches with a write-invalidate policy.
// Misses are decomposed into cold / pure-true-sharing / pure-false-sharing
// using the communication-flag machinery of package core, applied to each
// protocol's own lifetimes, so Fig. 6's per-protocol miss splits can be
// regenerated. A simulator passed through RatesOnly drops that machinery:
// it runs the same schedule and reports the same miss and traffic counts,
// without the split.
//
// Ownership follows §2.2: a store needs ownership; acquiring it on a copy
// that carries a pending invalidation costs a miss ("the cost of
// maintaining ownership"), while acquiring it on a clean shared copy is a
// free upgrade.
package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Result reports a protocol run: the miss decomposition and traffic counts.
type Result struct {
	Protocol string
	// Counts decomposes the protocol's misses: cold (PC+CTS+CFS),
	// pure true sharing (PTS) and pure false sharing (PFS). It is zero
	// for a rate-only simulator (see RatesOnly).
	Counts core.Counts
	// DataRefs is the number of load/store references: the miss-rate
	// denominator.
	DataRefs uint64
	// Misses is the protocol's miss count, tracked independently of
	// Counts as a cross-check. For every simulator that keeps the split
	// (the constructors' default, and so RunWith, Fig. 6 and the facade)
	// it equals Counts.Total(); a rate-only simulator counts the same
	// misses and leaves Counts zero.
	Misses uint64
	// Invalidations is the number of invalidation messages delivered to
	// remote copies (word-grain for MIN/WBWI, block-grain otherwise).
	Invalidations uint64
	// Upgrades counts ownership acquisitions that did not need a miss.
	Upgrades uint64
	// WriteThroughs counts store propagations in write-through protocols
	// (MIN only).
	WriteThroughs uint64
	// Updates counts value-update messages delivered to remote copies
	// (the WU/CU extension protocols only).
	Updates uint64
}

// MissRate returns the total miss rate in percent of data references.
func (r Result) MissRate() float64 { return core.Rate(r.Misses, r.DataRefs) }

// Simulator consumes a trace and produces a Result. Implementations are
// single-use: create one per run.
type Simulator interface {
	trace.Consumer
	// Finish flushes end-of-trace state and returns the result.
	Finish() Result
	// Name returns the paper's name for the schedule (e.g. "WBWI").
	Name() string
}

// Protocols lists the schedule names in the order the paper's Fig. 6 plots
// them.
var Protocols = []string{"MIN", "OTF", "RD", "SD", "SRD", "WBWI", "MAX"}

// New returns a fresh simulator for the named protocol.
func New(name string, procs int, g mem.Geometry) (Simulator, error) {
	switch name {
	case "MIN":
		return NewMIN(procs, g), nil
	case "OTF":
		return NewOTF(procs, g), nil
	case "RD":
		return NewRD(procs, g), nil
	case "SD":
		return NewSD(procs, g), nil
	case "SRD":
		return NewSRD(procs, g), nil
	case "WBWI":
		return NewWBWI(procs, g), nil
	case "MAX":
		return NewMAX(procs, g), nil
	case "WU":
		return NewWU(procs, g), nil
	case "CU":
		return NewCU(procs, g, DefaultCompetitiveThreshold)
	default:
		return nil, fmt.Errorf("coherence: unknown protocol %q", name)
	}
}

// RatesOnly drops the lifetime engine from a fresh simulator and returns
// it. The simulator runs the same schedule and reports every count a full
// one does (DataRefs, Misses, Invalidations, Upgrades, WriteThroughs,
// Updates, and MissCount and UpgradeCount along the way), but its
// Result.Counts stays zero: it allocates no lifetime record and makes no
// call into the engine per reference. Use it where nothing reads the miss
// split. sim must come from New or one of the typed constructors and must
// not have consumed a reference yet.
func RatesOnly(sim Simulator) Simulator {
	sim.(interface{ dropLifetimes() }).dropLifetimes()
	return sim
}

// base carries the bookkeeping shared by every simulator.
type base struct {
	g     mem.Geometry
	procs int
	// life decomposes the misses into Result.Counts; nil in a rate-only
	// simulator. Every call into it goes through the helpers below, which
	// are small enough to inline, so a rate-only simulator pays one nil
	// check per call site and never calls into core.
	life *core.Lifetimes

	name          string
	dataRefs      uint64
	misses        uint64
	invalidations uint64
	upgrades      uint64
	writeThroughs uint64
}

func newBase(name string, procs int, g mem.Geometry) base {
	return base{g: g, procs: procs, life: core.NewLifetimes(procs, g), name: name}
}

// Name implements Simulator.
func (b *base) Name() string { return b.name }

// MissCount returns the misses recorded so far. The timing model reads it
// around each reference to attribute blocking cycles.
func (b *base) MissCount() uint64 { return b.misses }

// UpgradeCount returns the ownership upgrades recorded so far.
func (b *base) UpgradeCount() uint64 { return b.upgrades }

func (b *base) dropLifetimes() { b.life = nil }

// newLifetime allocates block blk's lifetime record and returns its handle
// (0 in a rate-only simulator).
func (b *base) newLifetime(blk mem.Block) uint32 {
	if b.life == nil {
		return 0
	}
	return b.life.NewBlock(blk)
}

// miss records a miss by p on the block whose lifetime handle is h and
// opens its lifetime.
func (b *base) miss(p int, h uint32) {
	b.misses++
	if b.life != nil {
		b.life.OpenMiss(p, h)
	}
}

// invalidate ends q's lifetime on the block whose lifetime handle is h and
// counts one delivered invalidation message.
func (b *base) invalidate(q int, h uint32) {
	b.invalidations++
	b.closeLifetime(q, h)
}

// closeLifetime ends p's lifetime on the block whose lifetime handle is h
// without counting a message: the copy is dropped by a buffered
// invalidation the schedule already counted when it was sent.
func (b *base) closeLifetime(p int, h uint32) {
	if b.life != nil {
		b.life.CloseInvalidate(p, h)
	}
}

// accessed records p's data access to word a of the block behind h.
func (b *base) accessed(p int, h uint32, a mem.Addr) {
	if b.life != nil {
		b.life.Access(p, h, a)
	}
}

// stored records that p stored to word a of the block behind h.
func (b *base) stored(p int, h uint32, a mem.Addr) {
	if b.life != nil {
		b.life.RecordStore(p, h, a)
	}
}

// presentBlock is the block entry of the schedules that track nothing per
// block but the copies (OTF, WU): the processors holding one, and the
// block's lifetime handle.
type presentBlock struct {
	present uint64
	life    uint32
}

func (b *base) result() Result {
	mCoherenceRefs.Add(b.dataRefs)
	mCoherenceMiss.Add(b.misses)
	res := Result{
		Protocol:      b.name,
		DataRefs:      b.dataRefs,
		Misses:        b.misses,
		Invalidations: b.invalidations,
		Upgrades:      b.upgrades,
		WriteThroughs: b.writeThroughs,
	}
	if b.life != nil {
		res.Counts = b.life.Finish()
	}
	return res
}

// forEachProc calls fn for every processor in mask.
func forEachProc(mask uint64, fn func(p int)) {
	for mask != 0 {
		p := bits.TrailingZeros64(mask)
		mask &^= 1 << uint(p)
		fn(p)
	}
}

// RunWith replays a trace stream through the named protocol at geometry g.
func RunWith(name string, r trace.Reader, g mem.Geometry) (Result, error) {
	sim, err := New(name, r.NumProcs(), g)
	if err != nil {
		return Result{}, err
	}
	if err := trace.Drive(r, sim); err != nil {
		return Result{}, err
	}
	return sim.Finish(), nil
}
