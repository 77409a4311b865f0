package core

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/dense"
	"repro/internal/mem"
	"repro/internal/obs/span"
	"repro/internal/trace"
)

// This file implements the fused multi-configuration replay: one pass over
// a trace feeds every requested block size at once, for each of the three
// classification schemes. Block sizes are powers of two, so the blocks of
// every coarser geometry nest exactly inside the blocks of the finest one;
// per-level classifier state hangs off a dense.Hier keyed at the finest
// granularity, and each reference folds its transition into every level in
// one loop. The per-level counts are bit-for-bit identical to running the
// per-geometry classifiers one at a time over separate replays (the fused
// differential suite and FuzzFusedEquivalence enforce this); DESIGN.md §12
// gives the soundness argument.
//
// Two facts make the single-pass fold exact:
//
//   - The schemes' word-granular state is geometry-independent. The paper's
//     classification compares per-word definition timestamps against
//     per-processor communication bases; the definition written by a store
//     and the global store tick do not depend on the block size, so one
//     shared tick and one shared per-word definition vector (stored in the
//     finest level's cell) serve every level. Torrellas' per-word
//     touched/valid state is shared the same way.
//   - The block-granular state is maintained per level. Presence masks,
//     lifetimes, communication bases and Eggers' modified-since vectors
//     live in per-level arena cells, and each reference applies the exact
//     per-cell transition to each level; the levels never interact.

// Per-level cell layout (uint64 words). The mask words come first at fixed
// offsets so the hot path stays inside the cell's leading cache line; the
// per-processor commBase and openTick words follow at fusedHeader.
const (
	fusedOpen    = iota // procs with an open lifetime (== present: infinite cache, OTF)
	fusedEm             // procs whose open lifetime is already essential
	fusedFr             // procs with a previously classified lifetime
	fusedColdMod        // procs whose first lifetime opened on a modified block
	fusedMod            // non-zero once any processor stored to the block
	fusedHeader         // number of mask words before commBase
)

// fusedLevels computes the internal level order for a geometry list: levels
// sorted finest-first (ascending shift), with order[l] giving the caller's
// index for internal level l and shifts[l] the level's extra shift relative
// to the finest geometry. Duplicate geometries are kept as distinct levels.
func fusedLevels(geoms []mem.Geometry) (order []int, shifts []uint, sorted []mem.Geometry) {
	if len(geoms) == 0 {
		panic("core: fused classifier needs at least one geometry")
	}
	order = make([]int, len(geoms))
	for i := range order {
		order[i] = i
	}
	shiftOf := func(g mem.Geometry) uint {
		return uint(bits.TrailingZeros(uint(g.WordsPerBlock())))
	}
	sort.SliceStable(order, func(a, b int) bool {
		return shiftOf(geoms[order[a]]) < shiftOf(geoms[order[b]])
	})
	fine := shiftOf(geoms[order[0]])
	shifts = make([]uint, len(geoms))
	sorted = make([]mem.Geometry, len(geoms))
	for l, gi := range order {
		sorted[l] = geoms[gi]
		shifts[l] = shiftOf(geoms[gi]) - fine
	}
	return order, shifts, sorted
}

// fusedBlockSizes caches each internal level's block size in bytes, for
// the fused level-sweep span attributes.
func fusedBlockSizes(sorted []mem.Geometry) []int32 {
	blocks := make([]int32, len(sorted))
	for l, g := range sorted {
		blocks[l] = int32(g.BlockBytes())
	}
	return blocks
}

// FusedClassifier runs the paper's Appendix A classification at every
// requested block geometry in one pass over the trace. It implements
// trace.Consumer (synchronization and phase references are ignored, like
// Classifier); feed it the trace, then call Finish. Counts are identical,
// geometry by geometry, to running a fresh Classifier per geometry.
type FusedClassifier struct {
	fine     mem.Geometry
	procs    int
	order    []int
	hier     *dense.Hier
	counts   []Counts
	tick     uint64
	dataRefs uint64

	// Per-level state: a block's cell leads with the five mask words every
	// reference inspects, followed by the per-processor commBase and
	// openTick words, touched only when a lifetime opens, turns essential,
	// or closes. defw holds the shared per-word definition vector the
	// resolve pass reads and stores write, keyed like the finest level (the
	// hier alloc callback allocates it in lockstep with level 0's cells, so
	// one handle indexes both arenas).
	cells []*dense.Arena[uint64] // fusedHeader masks + commBase[procs] + openTick[procs]
	defw  *dense.Arena[uint64]   // shared definitions, one word per fine-block word

	// Batch scratch for the level-major replay (see RefBatch): per-reference
	// metadata resolved once, then applied level by level. Fixed-size,
	// allocated at construction — the hot path never touches the heap.
	meta []uint8    // proc in the low 6 bits, store flag in bit 7
	defs []uint64   // the accessed word's pre-store definition
	hcol [][]uint32 // per level: the reference's cell handle (column-major)
	one  [1]trace.Ref

	// tr is the driving goroutine's span track (nil when tracing is off),
	// injected via SetSpanTrack; blocks caches each level's block size for
	// the level-sweep span attributes.
	tr     *span.Track
	blocks []int32
}

// fusedBatch is the level-major chunk size: big enough to amortize the
// per-level loop setup, small enough that the scratch columns stay cache
// resident.
const fusedBatch = 1024

// NewFusedClassifier returns a FusedClassifier for procs processors over
// the given geometries (any order, duplicates allowed; Finish returns
// counts in the same order). It panics if procs is out of (0, MaxProcs] or
// geoms is empty.
func NewFusedClassifier(procs int, geoms []mem.Geometry) *FusedClassifier {
	if procs <= 0 || procs > MaxProcs {
		panic(fmt.Sprintf("core: processor count %d out of range (0,%d]", procs, MaxProcs))
	}
	order, shifts, sorted := fusedLevels(geoms)
	f := &FusedClassifier{
		fine:   sorted[0],
		procs:  procs,
		order:  order,
		cells:  make([]*dense.Arena[uint64], len(sorted)),
		counts: make([]Counts, len(sorted)),
		meta:   make([]uint8, fusedBatch),
		defs:   make([]uint64, fusedBatch),
		hcol:   make([][]uint32, len(sorted)),
		blocks: fusedBlockSizes(sorted),
	}
	for l := range f.hcol {
		f.hcol[l] = make([]uint32, fusedBatch)
	}
	for l := range sorted {
		f.cells[l] = dense.NewArena[uint64](fusedHeader + 2*procs)
	}
	f.defw = dense.NewArena[uint64](f.fine.WordsPerBlock())
	f.hier = dense.NewHier(shifts, func(level int) uint32 {
		// Allocate the finest level's definition cell in lockstep with its
		// state cell, so one handle indexes both arenas (they only ever
		// allocate here, and never free).
		h := f.cells[level].Alloc()
		if level == 0 {
			f.defw.Alloc()
		}
		return h
	})
	return f
}

// Geometries returns the number of fused levels.
func (f *FusedClassifier) Geometries() int { return len(f.order) }

// SetSpanTrack implements span.TrackSetter: trace.DriveContext hands the
// classifier the driving goroutine's track so resolve passes and level
// sweeps appear as sub-spans of the drive.
func (f *FusedClassifier) SetSpanTrack(t *span.Track) { f.tr = t }

// Ref implements trace.Consumer.
func (f *FusedClassifier) Ref(r trace.Ref) {
	f.one[0] = r
	f.RefBatch(f.one[:])
}

// RefBatch implements trace.BatchConsumer. The replay is level-major: a
// resolve pass walks the batch once, resolving each data reference's
// per-level cell handles and the word-granular communication state (the
// pre-store definition of the accessed word, the store tick — both
// geometry-independent, so they are computed exactly once), then each
// level's state is swept over the whole batch in its own tight loop. The
// per-level transitions never interact, so applying them level by level is
// the same computation as applying them reference by reference — but each
// sweep touches a single arena with the level's working set hot instead of
// striding through every level's state on every reference.
func (f *FusedClassifier) RefBatch(refs []trace.Ref) {
	for len(refs) > 0 {
		startTick := f.tick
		var sp span.Span
		if f.tr != nil {
			sp = f.tr.Begin(span.OpResolve, span.Fields{})
		}
		consumed, n := f.resolve(refs)
		sp.End()
		refs = refs[consumed:]
		if n == 0 {
			continue
		}
		f.dataRefs += uint64(n)
		for l := range f.cells {
			if f.tr != nil {
				sp = f.tr.Begin(span.OpLevelSweep, span.Fields{Level: int32(l), Block: f.blocks[l]})
			}
			f.levelPass(l, n, startTick)
			sp.End()
		}
	}
}

// resolve fills the batch scratch from refs: up to fusedBatch data
// references, skipping synchronization and phase markers. For each data
// reference it resolves the per-level cell handles (allocating state for
// first-touch blocks — all arena growth happens here, so the level passes
// run over stable slabs) and applies the shared word-granular transition:
// record the accessed word's current definition, then overwrite it on a
// store with the fresh tick. It returns how many refs were consumed and how
// many scratch rows were filled.
func (f *FusedClassifier) resolve(refs []trace.Ref) (consumed, n int) {
	for consumed < len(refs) && n < fusedBatch {
		r := refs[consumed]
		consumed++
		var st uint8
		switch r.Kind {
		case trace.Store:
			st = 0x80
		case trace.Load:
		default:
			continue
		}
		hs := f.hier.Handles(uint64(f.fine.BlockOf(r.Addr)))
		for l, h := range hs {
			f.hcol[l][n] = h
		}
		// The accessed word's last definition is the same at every level;
		// read it once from the definition arena (keyed like the finest
		// level). Levels classify against the pre-store value.
		word := f.defw.Slice(hs[0])[f.fine.OffsetOf(r.Addr):]
		f.defs[n] = word[0]
		f.meta[n] = uint8(r.Proc) | st
		if st != 0 {
			// The word's new definition: shared by every level, written once.
			f.tick++
			word[0] = f.tick<<6 | uint64(r.Proc)
		}
		n++
	}
	return consumed, n
}

// levelPass folds scratch rows [0,n) into level l: the paper's
// read_action/write_action applied to the level's lifetime state, using the
// word-granular state the resolve pass recorded. tick replays the global
// store tick from startTick — it advances exactly where resolve advanced
// it, so every row sees the tick value a reference-by-reference replay
// would have seen.
func (f *FusedClassifier) levelPass(l, n int, startTick uint64) {
	// All arena growth happened in resolve, so the slab is stable for the
	// whole sweep; hoisting it keeps the per-row work at plain indexing.
	stride := fusedHeader + 2*f.procs
	slab := f.cells[l].Slab()
	hs := f.hcol[l]
	tick := startTick
	for i := 0; i < n; i++ {
		m := f.meta[i]
		p := int(m & 0x3f)
		bit := uint64(1) << (m & 0x3f)
		cell := slab[int(hs[i])*stride:]
		if cell[fusedOpen]&bit == 0 {
			// read_action: the miss opens a new lifetime. With an infinite
			// cache under the on-the-fly schedule a lifetime is open iff the
			// copy is present, so there is never a stale lifetime to close
			// here (unlike the general Lifetimes engine).
			cell[fusedOpen] |= bit
			cell[fusedHeader+f.procs+p] = tick
			if cell[fusedFr]&bit == 0 && cell[fusedMod] != 0 {
				cell[fusedColdMod] |= bit
			}
		}
		// read_action: touching a word defined by another processor since
		// the last essential miss makes the lifetime essential. Once the
		// lifetime is essential the transition cannot fire again (the
		// communication base was raised to the lifetime's open tick when it
		// became essential, and neither moves within a lifetime), so the em
		// bit short-circuits the comparison — the steady-state loop stays
		// inside the cell's leading mask words.
		if def := f.defs[i]; cell[fusedEm]&bit == 0 && def != 0 && int(def&(MaxProcs-1)) != p {
			if co := cell[fusedHeader:]; def>>6 > co[p] {
				cell[fusedEm] |= bit
				if tk := co[f.procs+p]; tk > co[p] {
					co[p] = tk
				}
			}
		}
		if m&0x80 != 0 {
			// write_action: every other present copy is invalidated on the
			// fly; their lifetimes end and are classified now.
			others := cell[fusedOpen] &^ bit
			if others != 0 {
				co := cell[fusedHeader:]
				for others != 0 {
					q := bits.TrailingZeros64(others)
					others &^= 1 << uint(q)
					f.classify(l, cell, co, q)
				}
			}
			cell[fusedOpen] = bit
			cell[fusedEm] &= bit
			cell[fusedMod] = 1
			tick++
		}
	}
}

// classify scores the closing lifetime of processor q at level l, exactly
// mirroring Lifetimes.classify (there is no replacement class: the fused
// path models infinite caches). cell and co are the block's mask and bases
// cells; the caller adjusts the open/em bits.
func (f *FusedClassifier) classify(l int, cell, co []uint64, q int) {
	bit := uint64(1) << uint(q)
	c := &f.counts[l]
	switch {
	case cell[fusedFr]&bit == 0: // first lifetime: a cold miss
		switch {
		case cell[fusedEm]&bit != 0:
			c.CTS++
		case cell[fusedColdMod]&bit != 0:
			c.CFS++
		default:
			c.PC++
		}
		cell[fusedFr] |= bit
		// The cold miss is kept: it delivered every value defined before
		// its open.
		if tk := co[f.procs+q]; tk > co[q] {
			co[q] = tk
		}
	case cell[fusedEm]&bit != 0:
		c.PTS++
	default:
		c.PFS++
	}
}

// DataRefs returns the number of data references classified so far (each
// reference is counted once, not once per level).
func (f *FusedClassifier) DataRefs() uint64 { return f.dataRefs }

// Finish classifies the lifetimes still open at every level and returns
// the per-geometry totals in the constructor's geometry order. The
// classifier must not be used afterwards.
func (f *FusedClassifier) Finish() []Counts {
	for l := range f.cells {
		f.hier.RangeLevel(l, func(_ uint64, h uint32) {
			cell := f.cells[l].Slice(h)
			co := cell[fusedHeader:]
			open := cell[fusedOpen]
			for open != 0 {
				q := bits.TrailingZeros64(open)
				open &^= 1 << uint(q)
				f.classify(l, cell, co, q)
			}
			cell[fusedOpen] = 0
			cell[fusedEm] = 0
		})
	}
	// One fused pass does the classification work of one replay per level;
	// keep the work-total metric comparable with the per-cell path (which
	// adds each cell's own denominator).
	mOursRefs.Add(f.dataRefs * uint64(len(f.cells)))
	out := make([]Counts, len(f.order))
	for l, gi := range f.order {
		out[gi] = f.counts[l]
	}
	return out
}

// FusedEggers runs Eggers' classification at every requested geometry in
// one pass; see FusedClassifier. The per-cell scheme keeps a per-word
// modified-since-invalidation bit vector per block; replaying that directly
// at every level would loop over a coarse block's words on each miss and
// invalidation. The fused replay keeps an equivalent formulation in O(1)
// per level: per word, the latest store stamp (tick and writer) plus the
// latest store tick by any other writer — geometry-independent, so shared
// by every level like the definition vector — and per level block a
// per-processor reset tick (raised when the processor reloads the block or
// is invalidated). A word counts as modified-since for processor p exactly
// when the latest store to it by a writer other than p is newer than p's
// reset tick; the differential suite checks the counts match the bit-vector
// scheme bit for bit.
type FusedEggers struct {
	fine     mem.Geometry
	procs    int
	order    []int
	hier     *dense.Hier
	cells    []*dense.Arena[uint64] // per level: [present][touched][reset per proc]
	stamps   *dense.Arena[uint64]   // per fine-block word: {tick<<6 | writer, tick by another writer}
	counts   []SharingCounts
	tick     uint64
	dataRefs uint64

	// Batch scratch, as in FusedClassifier.
	meta []uint8
	s1   []uint64 // pre-store stamp: latest store, tick<<6 | writer
	s2   []uint64 // pre-store stamp: latest store tick by a different writer
	hcol [][]uint32
	one  [1]trace.Ref

	// Span instrumentation, as in FusedClassifier.
	tr     *span.Track
	blocks []int32
}

// NewFusedEggers returns a FusedEggers; see NewFusedClassifier.
func NewFusedEggers(procs int, geoms []mem.Geometry) *FusedEggers {
	if procs <= 0 || procs > MaxProcs {
		panic("core: processor count out of range")
	}
	order, shifts, sorted := fusedLevels(geoms)
	e := &FusedEggers{
		fine:   sorted[0],
		procs:  procs,
		order:  order,
		cells:  make([]*dense.Arena[uint64], len(sorted)),
		counts: make([]SharingCounts, len(sorted)),
		meta:   make([]uint8, fusedBatch),
		s1:     make([]uint64, fusedBatch),
		s2:     make([]uint64, fusedBatch),
		hcol:   make([][]uint32, len(sorted)),
		blocks: fusedBlockSizes(sorted),
	}
	for l := range e.hcol {
		e.hcol[l] = make([]uint32, fusedBatch)
	}
	for l := range sorted {
		e.cells[l] = dense.NewArena[uint64](2 + procs)
	}
	e.stamps = dense.NewArena[uint64](2 * e.fine.WordsPerBlock())
	e.hier = dense.NewHier(shifts, func(level int) uint32 {
		h := e.cells[level].Alloc()
		if level == 0 {
			e.stamps.Alloc()
		}
		return h
	})
	return e
}

// Ref implements trace.Consumer.
func (e *FusedEggers) Ref(r trace.Ref) {
	e.one[0] = r
	e.RefBatch(e.one[:])
}

// SetSpanTrack implements span.TrackSetter; see FusedClassifier.
func (e *FusedEggers) SetSpanTrack(t *span.Track) { e.tr = t }

// RefBatch implements trace.BatchConsumer; level-major like
// FusedClassifier.RefBatch.
func (e *FusedEggers) RefBatch(refs []trace.Ref) {
	for len(refs) > 0 {
		startTick := e.tick
		var sp span.Span
		if e.tr != nil {
			sp = e.tr.Begin(span.OpResolve, span.Fields{})
		}
		consumed, n := e.resolve(refs)
		sp.End()
		refs = refs[consumed:]
		if n == 0 {
			continue
		}
		e.dataRefs += uint64(n)
		for l := range e.cells {
			if e.tr != nil {
				sp = e.tr.Begin(span.OpLevelSweep, span.Fields{Level: int32(l), Block: e.blocks[l]})
			}
			e.levelPass(l, n, startTick)
			sp.End()
		}
	}
}

// resolve fills the batch scratch: per data reference, the per-level cell
// handles and the accessed word's pre-store stamps, then the shared
// word-granular store-stamp update (once per reference, for every level).
func (e *FusedEggers) resolve(refs []trace.Ref) (consumed, n int) {
	for consumed < len(refs) && n < fusedBatch {
		r := refs[consumed]
		consumed++
		var st uint8
		switch r.Kind {
		case trace.Store:
			st = 0x80
		case trace.Load:
		default:
			continue
		}
		hs := e.hier.Handles(uint64(e.fine.BlockOf(r.Addr)))
		for l, h := range hs {
			e.hcol[l][n] = h
		}
		word := e.stamps.Slice(hs[0])[2*e.fine.OffsetOf(r.Addr):]
		e.s1[n] = word[0]
		e.s2[n] = word[1]
		e.meta[n] = uint8(r.Proc) | st
		if st != 0 {
			e.tick++
			if int(word[0]&(MaxProcs-1)) != int(r.Proc) {
				// The previous latest store was by a different writer: it
				// becomes the latest store by a writer other than the new one.
				word[1] = word[0] >> 6
			}
			word[0] = e.tick<<6 | uint64(r.Proc)
		}
		n++
	}
	return consumed, n
}

// levelPass folds scratch rows [0,n) into level l's presence, touched and
// reset-tick state; see the type comment for the modified-since
// reformulation.
func (e *FusedEggers) levelPass(l, n int, startTick uint64) {
	// The slab is stable during the sweep (all growth happens in resolve).
	stride := 2 + e.procs
	slab := e.cells[l].Slab()
	hs := e.hcol[l]
	tick := startTick
	for i := 0; i < n; i++ {
		m := e.meta[i]
		p := int(m & 0x3f)
		bit := uint64(1) << (m & 0x3f)
		cell := slab[int(hs[i])*stride:]
		if cell[0]&bit == 0 { // miss
			// The latest store to the accessed word by a writer other than
			// p, from the pre-store stamps.
			s1 := e.s1[i]
			last := s1 >> 6
			if int(s1&(MaxProcs-1)) == p {
				last = e.s2[i]
			}
			switch {
			case cell[1]&bit == 0:
				e.counts[l].Cold++
			case last > cell[2+p]:
				e.counts[l].True++
			default:
				e.counts[l].False++
			}
			cell[0] |= bit
			// Reloading the block resets p's modified-since view: only
			// stores after this point count.
			cell[2+p] = tick
		}
		cell[1] |= bit

		if m&0x80 != 0 {
			if invalidated := cell[0] &^ bit; invalidated != 0 {
				// Losing the copy resets the victims' views too — to just
				// before this store, which they do observe (the per-cell
				// scheme clears their bit vectors and then marks this
				// store's word).
				for invalidated != 0 {
					q := bits.TrailingZeros64(invalidated)
					invalidated &^= 1 << uint(q)
					cell[2+q] = tick
				}
			}
			cell[0] = bit
			tick++
		}
	}
}

// DataRefs returns the number of data references classified.
func (e *FusedEggers) DataRefs() uint64 { return e.dataRefs }

// Finish returns the per-geometry totals in the constructor's geometry
// order; Eggers' verdicts are decided at miss time, so there is nothing to
// flush.
func (e *FusedEggers) Finish() []SharingCounts {
	mEggersRefs.Add(e.dataRefs * uint64(len(e.order)))
	out := make([]SharingCounts, len(e.order))
	for l, gi := range e.order {
		out[gi] = e.counts[l]
	}
	return out
}

// FusedTorrellas runs Torrellas' classification at every requested
// geometry in one pass; see FusedClassifier. The word-level state of the
// scheme (per-word touched and one-word-block validity) is geometry
// independent and shared across levels — it lives in an arena keyed like
// the finest level, replacing the per-cell scheme's word map; only the
// one-word block presence mask is per level.
type FusedTorrellas struct {
	fine     mem.Geometry
	procs    int
	order    []int
	hier     *dense.Hier
	arenas   []*dense.Arena[uint64] // one presence word per level block
	words    *dense.Arena[uint64]   // per fine-block word: {touched, valid}
	counts   []SharingCounts
	dataRefs uint64

	// Batch scratch, as in FusedClassifier.
	meta []uint8
	tv   []uint8 // pre-access word state for the proc: touched bit 0, valid bit 1
	hcol [][]uint32
	one  [1]trace.Ref

	// Span instrumentation, as in FusedClassifier.
	tr     *span.Track
	blocks []int32
}

// NewFusedTorrellas returns a FusedTorrellas; see NewFusedClassifier.
func NewFusedTorrellas(procs int, geoms []mem.Geometry) *FusedTorrellas {
	if procs <= 0 || procs > MaxProcs {
		panic("core: processor count out of range")
	}
	order, shifts, sorted := fusedLevels(geoms)
	t := &FusedTorrellas{
		fine:   sorted[0],
		procs:  procs,
		order:  order,
		arenas: make([]*dense.Arena[uint64], len(sorted)),
		counts: make([]SharingCounts, len(sorted)),
		meta:   make([]uint8, fusedBatch),
		tv:     make([]uint8, fusedBatch),
		hcol:   make([][]uint32, len(sorted)),
		blocks: fusedBlockSizes(sorted),
	}
	for l := range t.hcol {
		t.hcol[l] = make([]uint32, fusedBatch)
	}
	for l := range sorted {
		t.arenas[l] = dense.NewArena[uint64](1)
	}
	t.words = dense.NewArena[uint64](2 * t.fine.WordsPerBlock())
	t.hier = dense.NewHier(shifts, func(level int) uint32 {
		h := t.arenas[level].Alloc()
		if level == 0 {
			t.words.Alloc()
		}
		return h
	})
	return t
}

// Ref implements trace.Consumer.
func (t *FusedTorrellas) Ref(r trace.Ref) {
	t.one[0] = r
	t.RefBatch(t.one[:])
}

// SetSpanTrack implements span.TrackSetter; see FusedClassifier.
func (t *FusedTorrellas) SetSpanTrack(tr *span.Track) { t.tr = tr }

// RefBatch implements trace.BatchConsumer; level-major like
// FusedClassifier.RefBatch.
func (t *FusedTorrellas) RefBatch(refs []trace.Ref) {
	for len(refs) > 0 {
		var sp span.Span
		if t.tr != nil {
			sp = t.tr.Begin(span.OpResolve, span.Fields{})
		}
		consumed, n := t.resolve(refs)
		sp.End()
		refs = refs[consumed:]
		if n == 0 {
			continue
		}
		t.dataRefs += uint64(n)
		for l := range t.arenas {
			if t.tr != nil {
				sp = t.tr.Begin(span.OpLevelSweep, span.Fields{Level: int32(l), Block: t.blocks[l]})
			}
			t.levelPass(l, n)
			sp.End()
		}
	}
}

// resolve fills the batch scratch: per data reference, the per-level block
// handles and the accessing processor's pre-access word state (every level
// classifies against the pre-access values, exactly like the per-cell
// scheme), then the shared word-granular touched/valid update.
func (t *FusedTorrellas) resolve(refs []trace.Ref) (consumed, n int) {
	for consumed < len(refs) && n < fusedBatch {
		r := refs[consumed]
		consumed++
		var st uint8
		switch r.Kind {
		case trace.Store:
			st = 0x80
		case trace.Load:
		default:
			continue
		}
		hs := t.hier.Handles(uint64(t.fine.BlockOf(r.Addr)))
		for l, h := range hs {
			t.hcol[l][n] = h
		}
		bit := uint64(1) << uint(r.Proc)
		word := t.words.Slice(hs[0])[2*t.fine.OffsetOf(r.Addr):]
		touched, valid := word[0], word[1]
		t.tv[n] = uint8(touched>>uint(r.Proc)&1) | uint8(valid>>uint(r.Proc)&1)<<1
		t.meta[n] = uint8(r.Proc) | st
		word[0] = touched | bit
		if st != 0 {
			word[1] = bit // invalidate other word copies
		} else {
			word[1] = valid | bit
		}
		n++
	}
	return consumed, n
}

// levelPass folds scratch rows [0,n) into level l's presence masks.
func (t *FusedTorrellas) levelPass(l, n int) {
	// The slab is stable during the sweep (all growth happens in resolve);
	// the level cells are one word each, so the slab indexes by handle.
	slab := t.arenas[l].Slab()
	hs := t.hcol[l]
	for i := 0; i < n; i++ {
		m := t.meta[i]
		bit := uint64(1) << (m & 0x3f)
		present := &slab[hs[i]]
		if *present&bit == 0 { // miss in the level's block-size system
			switch tv := t.tv[i]; {
			case tv&1 == 0:
				t.counts[l].Cold++
			case tv&2 == 0: // also misses at one-word blocks
				t.counts[l].True++
			default:
				t.counts[l].False++
			}
			*present |= bit
		}
		if m&0x80 != 0 {
			*present = bit // invalidate other block copies
		}
	}
}

// DataRefs returns the number of data references classified.
func (t *FusedTorrellas) DataRefs() uint64 { return t.dataRefs }

// Finish returns the per-geometry totals in the constructor's geometry
// order; the verdicts are decided at miss time.
func (t *FusedTorrellas) Finish() []SharingCounts {
	mTorrellasRefs.Add(t.dataRefs * uint64(len(t.order)))
	out := make([]SharingCounts, len(t.order))
	for l, gi := range t.order {
		out[gi] = t.counts[l]
	}
	return out
}

// FusedClassify runs the paper's classification at every geometry over one
// replay of the trace stream, returning per-geometry counts (in geoms
// order) and the data-reference denominator (shared by all geometries).
func FusedClassify(r trace.Reader, geoms []mem.Geometry) ([]Counts, uint64, error) {
	f := NewFusedClassifier(r.NumProcs(), geoms)
	if err := trace.Drive(r, f); err != nil {
		return nil, 0, err
	}
	counts := f.Finish()
	return counts, f.DataRefs(), nil
}

// FusedClassifyEggers is FusedClassify for Eggers' scheme.
func FusedClassifyEggers(r trace.Reader, geoms []mem.Geometry) ([]SharingCounts, uint64, error) {
	e := NewFusedEggers(r.NumProcs(), geoms)
	if err := trace.Drive(r, e); err != nil {
		return nil, 0, err
	}
	counts := e.Finish()
	return counts, e.DataRefs(), nil
}

// FusedClassifyTorrellas is FusedClassify for Torrellas' scheme.
func FusedClassifyTorrellas(r trace.Reader, geoms []mem.Geometry) ([]SharingCounts, uint64, error) {
	t := NewFusedTorrellas(r.NumProcs(), geoms)
	if err := trace.Drive(r, t); err != nil {
		return nil, 0, err
	}
	counts := t.Finish()
	return counts, t.DataRefs(), nil
}
