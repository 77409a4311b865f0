package coherence

import (
	"repro/internal/dense"
	"repro/internal/mem"
	"repro/internal/trace"
)

// SRD combines SD and RD (§4): stores to non-owned blocks are buffered at
// the sender until its next release (combining per block at the sending
// end), and invalidations are buffered at each receiver until its next
// acquire (combining at the receiving end).
type SRD struct {
	base
	blocks   *dense.Map[srdBlock]
	buffers  [][]mem.Block // per proc: blocks with buffered stores
	pendList [][]mem.Block // per proc: blocks with buffered received invalidations
}

type srdBlock struct {
	present  uint64
	pending  uint64 // procs whose copy has a buffered received invalidation
	buffered uint64 // procs holding a buffered store to this block
	life     uint32 // lifetime handle
	owner    int8
}

// NewSRD returns a send-and-receive-delayed simulator.
func NewSRD(procs int, g mem.Geometry) *SRD {
	return &SRD{
		base:     newBase("SRD", procs, g),
		blocks:   dense.NewMap[srdBlock](0),
		buffers:  make([][]mem.Block, procs),
		pendList: make([][]mem.Block, procs),
	}
}

func (s *SRD) block(b mem.Block) *srdBlock {
	sb, existed := s.blocks.GetOrPut(uint64(b))
	if !existed {
		sb.owner = -1
		sb.life = s.newLifetime(b)
	}
	return sb
}

// Ref implements trace.Consumer.
func (s *SRD) Ref(r trace.Ref) {
	p := int(r.Proc)
	switch r.Kind {
	case trace.Load:
		s.load(p, r.Addr)
	case trace.Store:
		s.store(p, r.Addr)
	case trace.Acquire:
		s.acquire(p)
	case trace.Release:
		s.release(p)
	}
}

// RefBatch implements trace.BatchConsumer.
func (s *SRD) RefBatch(refs []trace.Ref) {
	for _, r := range refs {
		s.Ref(r)
	}
}

func (s *SRD) load(p int, a mem.Addr) {
	s.dataRefs++
	sb := s.block(s.g.BlockOf(a))
	bit := uint64(1) << uint(p)
	if sb.present&bit == 0 {
		s.miss(p, sb.life)
		sb.present |= bit
		sb.pending &^= bit
	}
	s.accessed(p, sb.life, a)
}

func (s *SRD) store(p int, a mem.Addr) {
	s.dataRefs++
	blk := s.g.BlockOf(a)
	sb := s.block(blk)
	bit := uint64(1) << uint(p)

	if sb.owner == int8(p) {
		// Owner stores complete immediately; the invalidations are
		// still receive-delayed.
		s.sendInvalidations(sb, blk, bit)
	} else {
		if sb.present&bit == 0 {
			s.miss(p, sb.life)
			sb.present |= bit
			sb.pending &^= bit
		}
		if sb.buffered&bit == 0 {
			sb.buffered |= bit
			s.buffers[p] = append(s.buffers[p], blk)
		}
	}
	s.accessed(p, sb.life, a)
	s.stored(p, sb.life, a)
}

// release flushes the store buffer: ownership is acquired per block and one
// combined invalidation per block goes out to the receivers' buffers.
func (s *SRD) release(p int) {
	bit := uint64(1) << uint(p)
	for _, blk := range s.buffers[p] {
		sb := s.blocks.Get(uint64(blk))
		switch {
		case sb.present&bit == 0:
			s.miss(p, sb.life)
			sb.present |= bit
			sb.pending &^= bit
		case sb.pending&bit != 0:
			// Taking ownership on a copy with a buffered
			// invalidation costs a miss (§2.2).
			s.closeLifetime(p, sb.life)
			s.miss(p, sb.life)
			sb.pending &^= bit
		case sb.owner != int8(p):
			s.upgrades++
		}
		sb.owner = int8(p)
		s.sendInvalidations(sb, blk, bit)
		sb.buffered &^= bit
	}
	s.buffers[p] = s.buffers[p][:0]
}

// acquire performs all buffered received invalidations.
func (s *SRD) acquire(p int) {
	bit := uint64(1) << uint(p)
	for _, blk := range s.pendList[p] {
		sb := s.blocks.Get(uint64(blk))
		if sb.pending&bit == 0 {
			continue
		}
		sb.pending &^= bit
		sb.present &^= bit
		s.closeLifetime(p, sb.life)
	}
	s.pendList[p] = s.pendList[p][:0]
}

func (s *SRD) sendInvalidations(sb *srdBlock, blk mem.Block, bit uint64) {
	sharers := sb.present &^ bit
	if sharers == 0 {
		return
	}
	s.invalidations += uint64(popcount(sharers))
	newPending := sharers &^ sb.pending
	sb.pending |= sharers
	forEachProc(newPending, func(q int) {
		s.pendList[q] = append(s.pendList[q], blk)
	})
}

// Finish implements Simulator: pending sends are flushed and pending
// received invalidations performed, as if every processor ended with a
// release followed by an acquire.
func (s *SRD) Finish() Result {
	for p := range s.buffers {
		s.release(p)
	}
	for p := range s.pendList {
		s.acquire(p)
	}
	return s.result()
}
