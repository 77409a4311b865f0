package core

import (
	"fmt"
	"math/bits"

	"repro/internal/dense"
	"repro/internal/mem"
)

// Lifetimes is the engine behind the paper's Appendix A classification,
// factored out so that any invalidation schedule can have its misses
// decomposed into cold, pure-true-sharing and pure-false-sharing misses.
//
// A lifetime is the interval between a processor's miss on a block and the
// invalidation of the copy that miss loaded (or the end of the run). The
// caller — the on-the-fly Classifier, or one of the protocol simulators —
// tells Lifetimes when misses and invalidations happen under its schedule;
// Lifetimes tracks value communication independently of that schedule.
//
// Where the paper's Appendix A pseudocode keeps one communication (C) bit
// per word and processor, this engine keeps the last definition of each
// word (a logical store timestamp plus the writing processor) and, per
// processor and block, a communication base: the timestamp up to which the
// kept (essential) misses have already delivered values. An access is a
// communication event when it touches a word whose last definition is by
// another processor and newer than the accessor's base. The timestamped
// form is exactly the paper's §2 definition — "a value defined by a
// different processor since the last essential miss" — and unlike single
// bits it cannot conflate a value delivered by the cold miss with a later
// redefinition of the same word. It preserves the identity the paper builds
// MIN on: the MIN protocol's miss count equals the essential miss count
// under every schedule, with no false sharing.
//
// The miss is classified when the lifetime ends: the processor's first
// lifetime on a block is a cold miss (refined into PC/CTS/CFS), later
// lifetimes are PTS when essential and PFS otherwise.
//
// Lifetimes keeps no block table of its own. Every caller already keys its
// per-block state by block; it allocates the block's lifetime record with
// NewBlock when it creates that entry, stores the returned handle in it, and
// passes the handle to every other method. One probe of the caller's table
// per reference then serves both.
type Lifetimes struct {
	geom  mem.Geometry
	procs int
	words int // geom.WordsPerBlock()
	// recs[h] is the lifetime record of the block behind handle h (see
	// NewBlock); recs[0] is the never-opened sentinel.
	recs []lifeBlock
	// slab holds each record's state vector in the arena cell with the
	// record's own handle: [0:words) per-word definitions,
	// [words:words+procs) commBase, [words+procs:words+2*procs) openTick.
	// A word's last definition is packed as tick<<6 | writer (MaxProcs is
	// 64); zero means never defined.
	slab   *dense.Arena[uint64]
	counts Counts
	tick   uint64 // advances on every RecordStore

	// OnClassify, if set, is called once per classified miss with the
	// processor, the block, and the verdict, at the moment the miss's
	// lifetime closes. Used by the cross-classification analysis.
	OnClassify func(p int, b mem.Block, class Class)
}

// Class is one miss verdict of the paper's classification.
type Class uint8

// The verdicts, in Counts field order.
const (
	ClassPC Class = iota
	ClassCTS
	ClassCFS
	ClassPTS
	ClassPFS
	ClassRepl
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassPC:
		return "PC"
	case ClassCTS:
		return "CTS"
	case ClassCFS:
		return "CFS"
	case ClassPTS:
		return "PTS"
	case ClassPFS:
		return "PFS"
	case ClassRepl:
		return "REPL"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Sharing collapses a verdict into the three-way cold/true/false split used
// when comparing classifications (replacement misses count as essential
// "true" communication-free refetches and are reported separately by
// callers; Sharing maps them to cold for lack of a better bucket — the
// cross analysis never sees them because it runs on infinite caches).
func (c Class) Sharing() SharingClass {
	switch c {
	case ClassPTS:
		return SharingTrue
	case ClassPFS:
		return SharingFalse
	default:
		return SharingCold
	}
}

// SharingClass is a three-way verdict: cold, true sharing, false sharing.
type SharingClass uint8

// The three-way verdicts.
const (
	SharingCold SharingClass = iota
	SharingTrue
	SharingFalse
)

// String implements fmt.Stringer.
func (s SharingClass) String() string {
	switch s {
	case SharingCold:
		return "COLD"
	case SharingTrue:
		return "TRUE"
	case SharingFalse:
		return "FALSE"
	default:
		return fmt.Sprintf("SharingClass(%d)", uint8(s))
	}
}

// lifeBlock is one block's lifetime record: the per-processor bitmasks every
// access inspects, the block number for the OnClassify hook, and the
// modified flag. The variable-size vectors (per-word definitions, commBase,
// openTick) live in the arena cell with the same handle.
type lifeBlock struct {
	open     uint64 // procs with an open lifetime
	em       uint64 // procs whose open lifetime is already essential
	fr       uint64 // procs that have had a lifetime classified (FR flag)
	coldMod  uint64 // procs whose first lifetime opened on an already-modified block
	replNext uint64 // procs whose next lifetime follows a replacement (finite caches)
	replOpen uint64 // procs whose open lifetime followed a replacement
	block    mem.Block
	modified bool // some processor has stored to this block
}

// commBase returns the per-processor communication bases of the block
// behind h: commBase[p] is the tick up to which values have been delivered
// to p by its kept (essential) misses.
func (l *Lifetimes) commBase(h uint32) []uint64 {
	return l.slab.Slice(h)[l.words : l.words+l.procs]
}

// openTick returns the per-processor lifetime-open ticks of the block behind
// h: the store tick at which p's current lifetime opened; the miss that
// opened it fetched all values defined up to then.
func (l *Lifetimes) openTick(h uint32) []uint64 {
	return l.slab.Slice(h)[l.words+l.procs : l.words+2*l.procs]
}

// NewLifetimes returns a Lifetimes engine for the given processor count and
// block geometry. It panics if procs is out of (0, MaxProcs].
func NewLifetimes(procs int, g mem.Geometry) *Lifetimes {
	if procs <= 0 || procs > MaxProcs {
		panic(fmt.Sprintf("core: processor count %d out of range (0,%d]", procs, MaxProcs))
	}
	w := g.WordsPerBlock()
	return &Lifetimes{
		geom:  g,
		procs: procs,
		words: w,
		recs:  make([]lifeBlock, 1),
		slab:  dense.NewArena[uint64](w + 2*procs),
	}
}

// NewBlock allocates block b's lifetime record and returns its handle, which
// every other method takes in place of the block. Call it once per block,
// when the caller first creates its own entry for b. Finish visits the
// records in allocation order.
func (l *Lifetimes) NewBlock(b mem.Block) uint32 {
	h := l.slab.Alloc()
	l.recs = append(l.recs, lifeBlock{block: b})
	return h
}

// Geometry returns the block geometry the engine was built with.
func (l *Lifetimes) Geometry() mem.Geometry { return l.geom }

// NumProcs returns the processor count.
func (l *Lifetimes) NumProcs() int { return l.procs }

// OpenMiss records a miss by processor p on the block behind h under the
// caller's schedule, opening a new lifetime. If p still has an open lifetime
// on the block (an upgrade-style miss on a copy that was never explicitly
// invalidated), the old lifetime is classified and closed first.
func (l *Lifetimes) OpenMiss(p int, h uint32) {
	lb := &l.recs[h]
	bit := uint64(1) << uint(p)
	if lb.open&bit != 0 {
		l.classify(h, lb, p, bit)
	}
	lb.open |= bit
	lb.em &^= bit
	l.openTick(h)[p] = l.tick
	lb.replOpen = lb.replOpen&^bit | lb.replNext&bit
	lb.replNext &^= bit
	if lb.fr&bit == 0 && lb.modified {
		lb.coldMod |= bit
	}
}

// Access records a data access (load or store) by p to word a of the block
// behind h. If, during p's open lifetime, the word's last definition is by
// another processor and newer than everything p's essential misses have
// delivered, the lifetime becomes essential: the miss that opened it is
// needed, and it delivered every value defined up to its own open. Callers
// must have reported the miss (OpenMiss) first when the access missed;
// accesses without an open lifetime are ignored.
func (l *Lifetimes) Access(p int, h uint32, a mem.Addr) {
	lb := &l.recs[h]
	bit := uint64(1) << uint(p)
	// Once the lifetime is essential the transition cannot fire again: the
	// base was raised to the lifetime's open tick when it became essential,
	// and neither moves within a lifetime. So the steady state never reads
	// the word's definition.
	if lb.open&bit == 0 || lb.em&bit != 0 {
		return
	}
	cell := l.slab.Slice(h)
	def := cell[l.geom.OffsetOf(a)]
	commBase := cell[l.words : l.words+l.procs]
	if def == 0 || int(def&(MaxProcs-1)) == p || def>>6 <= commBase[p] {
		return
	}
	lb.em |= bit
	if tick := cell[l.words+l.procs+p]; tick > commBase[p] {
		commBase[p] = tick
	}
}

// RecordStore records that p stored to word a of the block behind h,
// independently of when the caller's schedule propagates the invalidation:
// the word's last definition becomes this store.
func (l *Lifetimes) RecordStore(p int, h uint32, a mem.Addr) {
	l.recs[h].modified = true
	l.tick++
	l.slab.Slice(h)[l.geom.OffsetOf(a)] = l.tick<<6 | uint64(p)
}

// CloseInvalidate ends p's lifetime on the block behind h because the
// caller's schedule invalidated p's copy, classifying the miss that opened
// it. Calling it without an open lifetime only cancels a pending replacement
// mark: a block that was evicted and then invalidated would miss even with
// an infinite cache, so the next miss is a coherence miss, not a replacement
// miss.
func (l *Lifetimes) CloseInvalidate(p int, h uint32) {
	lb := &l.recs[h]
	bit := uint64(1) << uint(p)
	lb.replNext &^= bit
	if lb.open&bit == 0 {
		return
	}
	l.classify(h, lb, p, bit)
	lb.open &^= bit
	lb.em &^= bit
}

// CloseReplace ends p's lifetime on the block behind h because p's finite
// cache evicted the copy (§8 extension). The miss that opened the lifetime
// is classified as usual; p's next miss on the block will be a replacement
// miss — essential by definition, since the program still needs the values.
// Calling it without an open lifetime is a no-op.
func (l *Lifetimes) CloseReplace(p int, h uint32) {
	lb := &l.recs[h]
	bit := uint64(1) << uint(p)
	if lb.open&bit == 0 {
		return
	}
	l.classify(h, lb, p, bit)
	lb.open &^= bit
	lb.em &^= bit
	lb.replNext |= bit
}

// classify scores the lifetime of processor p on the block behind h (whose
// record is lb) and sets its FR flag. The caller adjusts the open/em bits.
func (l *Lifetimes) classify(h uint32, lb *lifeBlock, p int, bit uint64) {
	var class Class
	switch {
	case lb.replOpen&bit != 0:
		// The previous copy was evicted, not invalidated: refetching
		// it is essential no matter what is touched. The kept miss
		// delivered every value defined up to its open. A replaced
		// copy implies an earlier lifetime, so FR is already set.
		class = ClassRepl
		l.counts.Repl++
		if commBase, tick := l.commBase(h), l.openTick(h)[p]; tick > commBase[p] {
			commBase[p] = tick
		}
	case lb.fr&bit == 0: // first lifetime: a cold miss
		switch {
		case lb.em&bit != 0:
			class = ClassCTS
			l.counts.CTS++
		case lb.coldMod&bit != 0:
			class = ClassCFS
			l.counts.CFS++
		default:
			class = ClassPC
			l.counts.PC++
		}
		lb.fr |= bit
		// The cold miss is essential by definition, so it is kept:
		// it delivered every value defined before it (§2). Later
		// misses can only be essential for newer values.
		if commBase, tick := l.commBase(h), l.openTick(h)[p]; tick > commBase[p] {
			commBase[p] = tick
		}
	case lb.em&bit != 0:
		class = ClassPTS
		l.counts.PTS++
	default:
		class = ClassPFS
		l.counts.PFS++
	}
	if l.OnClassify != nil {
		l.OnClassify(p, lb.block, class)
	}
}

// Finish classifies all still-open lifetimes (the paper's end_of_simulation
// step), block by block in NewBlock order, and returns the totals. The
// engine must not be used afterwards.
func (l *Lifetimes) Finish() Counts {
	for h := 1; h < len(l.recs); h++ {
		lb := &l.recs[h]
		open := lb.open
		for open != 0 {
			p := bits.TrailingZeros64(open)
			open &^= 1 << uint(p)
			l.classify(uint32(h), lb, p, 1<<uint(p))
		}
		lb.open = 0
		lb.em = 0
	}
	return l.counts
}

// Snapshot returns the counts classified so far, excluding open lifetimes.
func (l *Lifetimes) Snapshot() Counts { return l.counts }
