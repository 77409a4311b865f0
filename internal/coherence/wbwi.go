package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/dense"
	"repro/internal/mem"
	"repro/internal/trace"
)

// WBWI is the write-back word-invalidate protocol (§4): like MIN it keeps a
// dirty bit per word and invalidates a copy only when a buffered per-word
// invalidation is actually touched, but it maintains ownership to avoid
// write-through traffic. The cost of ownership (§2.2): a store to a
// non-owned copy with a buffered invalidation on ANY word of the block must
// miss, where MIN would have kept writing through.
type WBWI struct {
	base
	blocks *dense.Map[wbwiBlock]
	// pendSlab holds one cell per block (sectors words); cntSlab holds one
	// cell per block (procs counters, limited buffers only). Both are
	// created on the first block since NewSectored/NewWBWILimited adjust
	// the cell sizes after NewWBWI.
	pendSlab *dense.Arena[uint64]
	cntSlab  *dense.Arena[uint16]
	// sectorShift maps word offsets to invalidation sectors: 0 gives the
	// paper's word-grain WBWI; larger shifts coarsen the invalidation
	// grain up to the whole block (see NewSectored).
	sectorShift uint
	sectors     int
	// limit caps the per-copy invalidation buffer: at most limit words
	// of a copy may carry buffered invalidations; one more invalidates
	// the whole copy immediately. 0 means unlimited (a dirty bit per
	// word, the paper's WBWI). Small limits interpolate toward OTF and
	// model the hardware-cost concern of §7: "WBWI requires one dirty
	// bit per word whereas RD only needs one stale bit per block".
	limit int
}

type wbwiBlock struct {
	present uint64 // procs with a copy
	pendAny uint64 // procs with a buffered invalidation on >= 1 word
	owner   int8   // current owner, -1 if none yet
	pend    uint32 // arena handle, per word: procs with a buffered invalidation
	cnt     uint32 // arena handle, per proc: buffered words (limited buffers only)
	life    uint32 // lifetime handle
}

// NewWBWI returns a WBWI simulator with an unlimited invalidation buffer
// (one dirty bit per word).
func NewWBWI(procs int, g mem.Geometry) *WBWI {
	return &WBWI{
		base:    newBase("WBWI", procs, g),
		blocks:  dense.NewMap[wbwiBlock](0),
		sectors: g.WordsPerBlock(),
	}
}

// NewSectored returns a WBWI-style simulator that invalidates at sector
// granularity instead of word granularity: remote stores mark the enclosing
// sector of every copy dirty, and touching a dirty sector misses. With
// sectorBytes equal to the word size this is exactly WBWI; with sectorBytes
// equal to the block size it degenerates to full-block invalidation. This
// is the §7 outlook — "systems with multiple block sizes, or even systems
// in which coherence is maintained on individual words" — as a runnable
// design point: fetch at the block size, keep coherence at the sector size.
func NewSectored(procs int, g mem.Geometry, sectorBytes int) (*WBWI, error) {
	if sectorBytes < mem.WordBytes || sectorBytes > g.BlockBytes() || sectorBytes&(sectorBytes-1) != 0 {
		return nil, fmt.Errorf("coherence: sector size %d not a power of two in [%d,%d]",
			sectorBytes, mem.WordBytes, g.BlockBytes())
	}
	s := NewWBWI(procs, g)
	s.name = fmt.Sprintf("SEC-%d", sectorBytes)
	sectorWords := sectorBytes / mem.WordBytes
	for 1<<s.sectorShift < sectorWords {
		s.sectorShift++
	}
	s.sectors = g.WordsPerBlock() >> s.sectorShift
	return s, nil
}

// NewWBWILimited returns a WBWI simulator whose per-copy invalidation
// buffer holds at most entries words; a store that would exceed it
// invalidates the victim copy outright.
func NewWBWILimited(procs int, g mem.Geometry, entries int) (*WBWI, error) {
	if entries < 1 {
		return nil, fmt.Errorf("coherence: WBWI buffer size %d < 1", entries)
	}
	s := NewWBWI(procs, g)
	s.limit = entries
	return s, nil
}

func (s *WBWI) block(b mem.Block) *wbwiBlock {
	wb, existed := s.blocks.GetOrPut(uint64(b))
	if !existed {
		if s.pendSlab == nil {
			s.pendSlab = dense.NewArena[uint64](s.sectors)
			if s.limit > 0 {
				s.cntSlab = dense.NewArena[uint16](s.procs)
			}
		}
		wb.owner = -1
		wb.life = s.newLifetime(b)
		wb.pend = s.pendSlab.Alloc()
		if s.limit > 0 {
			wb.cnt = s.cntSlab.Alloc()
		}
	}
	return wb
}

// Ref implements trace.Consumer.
func (s *WBWI) Ref(r trace.Ref) {
	if !r.Kind.IsData() {
		return
	}
	s.dataRefs++
	p := int(r.Proc)
	wb := s.block(s.g.BlockOf(r.Addr))
	pend := s.pendSlab.Slice(wb.pend)
	bit := uint64(1) << uint(p)
	off := s.g.OffsetOf(r.Addr) >> s.sectorShift

	if r.Kind == trace.Load {
		switch {
		case wb.present&bit == 0:
			s.miss(p, wb.life)
			wb.present |= bit
			s.clear(wb, pend, bit)
		case pend[off]&bit != 0: // touched a word-invalidated word
			s.closeLifetime(p, wb.life)
			s.miss(p, wb.life)
			s.clear(wb, pend, bit)
		}
		s.accessed(p, wb.life, r.Addr)
		return
	}

	// Store: acquire ownership.
	switch {
	case wb.present&bit == 0:
		s.miss(p, wb.life)
		wb.present |= bit
		s.clear(wb, pend, bit)
	case wb.pendAny&bit != 0:
		// Ownership on a copy with any buffered word invalidation
		// costs a miss: the fresh copy is fetched from the owner.
		s.closeLifetime(p, wb.life)
		s.miss(p, wb.life)
		s.clear(wb, pend, bit)
	case wb.owner != int8(p):
		s.upgrades++
	}
	wb.owner = int8(p)
	s.accessed(p, wb.life, r.Addr)

	sharers := wb.present &^ bit
	if sharers != 0 {
		s.invalidations += uint64(popcount(sharers))
		newly := sharers &^ pend[off]
		pend[off] |= sharers
		wb.pendAny |= sharers
		if s.limit > 0 && newly != 0 {
			s.chargeBuffer(wb, pend, newly)
		}
	}
	s.stored(p, wb.life, r.Addr)
}

// RefBatch implements trace.BatchConsumer.
func (s *WBWI) RefBatch(refs []trace.Ref) {
	for _, r := range refs {
		s.Ref(r)
	}
}

// chargeBuffer accounts one buffered word for each processor in mask and
// invalidates any copy whose buffer would overflow.
func (s *WBWI) chargeBuffer(wb *wbwiBlock, pend []uint64, mask uint64) {
	cnt := s.cntSlab.Slice(wb.cnt)
	forEachProc(mask, func(q int) {
		cnt[q]++
		if int(cnt[q]) <= s.limit {
			return
		}
		// Overflow: the hardware falls back to invalidating the
		// whole copy at once.
		qbit := uint64(1) << uint(q)
		wb.present &^= qbit
		s.clear(wb, pend, qbit)
		s.closeLifetime(q, wb.life)
	})
}

func (s *WBWI) clear(wb *wbwiBlock, pend []uint64, bit uint64) {
	if wb.cnt != 0 {
		s.cntSlab.Slice(wb.cnt)[bits.TrailingZeros64(bit)] = 0
	}
	if wb.pendAny&bit == 0 {
		return
	}
	clearPending(pend, bit)
	wb.pendAny &^= bit
}

// Finish implements Simulator.
func (s *WBWI) Finish() Result { return s.result() }
