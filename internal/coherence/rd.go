package coherence

import (
	"repro/internal/dense"
	"repro/internal/mem"
	"repro/internal/trace"
)

// RD is the receive-delayed protocol (§4, after Dubois et al.'s delayed
// consistency): invalidations are sent at store time but buffered at each
// receiver, which keeps using its (possibly stale) copy until its next
// acquire; the acquire invalidates every block with a buffered invalidation.
// This combines invalidations at the receiving end, which the paper argues
// is the more effective end to combine at (§2.3). One stale bit per block
// suffices, versus a dirty bit per word for WBWI.
type RD struct {
	base
	blocks   *dense.Map[rdBlock]
	pendList [][]mem.Block // per proc: blocks with a buffered invalidation
}

type rdBlock struct {
	present uint64 // procs with a copy (possibly stale)
	pending uint64 // procs whose copy has a buffered invalidation
	life    uint32 // lifetime handle
	owner   int8
}

// NewRD returns a receive-delayed simulator.
func NewRD(procs int, g mem.Geometry) *RD {
	return &RD{
		base:     newBase("RD", procs, g),
		blocks:   dense.NewMap[rdBlock](0),
		pendList: make([][]mem.Block, procs),
	}
}

func (s *RD) block(b mem.Block) *rdBlock {
	rb, existed := s.blocks.GetOrPut(uint64(b))
	if !existed {
		rb.owner = -1
		rb.life = s.newLifetime(b)
	}
	return rb
}

// Ref implements trace.Consumer.
func (s *RD) Ref(r trace.Ref) {
	p := int(r.Proc)
	switch r.Kind {
	case trace.Load:
		s.load(p, r.Addr)
	case trace.Store:
		s.store(p, r.Addr)
	case trace.Acquire:
		s.acquire(p)
	}
}

// RefBatch implements trace.BatchConsumer.
func (s *RD) RefBatch(refs []trace.Ref) {
	for _, r := range refs {
		s.Ref(r)
	}
}

func (s *RD) load(p int, a mem.Addr) {
	s.dataRefs++
	blk := s.g.BlockOf(a)
	rb := s.block(blk)
	bit := uint64(1) << uint(p)
	if rb.present&bit == 0 {
		s.miss(p, rb.life)
		rb.present |= bit
		rb.pending &^= bit // fresh copy: buffered invalidation satisfied
	}
	// A stale copy still hits: the invalidation waits for the acquire.
	s.accessed(p, rb.life, a)
}

func (s *RD) store(p int, a mem.Addr) {
	s.dataRefs++
	blk := s.g.BlockOf(a)
	rb := s.block(blk)
	bit := uint64(1) << uint(p)

	if rb.owner != int8(p) {
		switch {
		case rb.present&bit == 0:
			s.miss(p, rb.life)
			rb.present |= bit
			rb.pending &^= bit
		case rb.pending&bit != 0:
			// Ownership on a stale copy costs a miss (§2.2).
			s.closeLifetime(p, rb.life)
			s.miss(p, rb.life)
			rb.pending &^= bit
		default:
			s.upgrades++
		}
		rb.owner = int8(p)
	}
	s.accessed(p, rb.life, a)

	// Send invalidations immediately; they sit in the receivers'
	// buffers until their next acquire.
	sharers := rb.present &^ bit
	if sharers != 0 {
		s.invalidations += uint64(popcount(sharers))
		newPending := sharers &^ rb.pending
		rb.pending |= sharers
		forEachProc(newPending, func(q int) {
			s.pendList[q] = append(s.pendList[q], blk)
		})
	}
	s.stored(p, rb.life, a)
}

func (s *RD) acquire(p int) {
	bit := uint64(1) << uint(p)
	for _, blk := range s.pendList[p] {
		rb := s.blocks.Get(uint64(blk))
		if rb.pending&bit == 0 {
			continue // already satisfied by a refetch
		}
		rb.pending &^= bit
		rb.present &^= bit
		s.closeLifetime(p, rb.life)
	}
	s.pendList[p] = s.pendList[p][:0]
}

// Finish implements Simulator.
func (s *RD) Finish() Result { return s.result() }
