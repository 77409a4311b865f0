package coherence

import (
	"math/bits"

	"repro/internal/dense"
	"repro/internal/mem"
	"repro/internal/trace"
)

// MIN is the paper's write-through protocol with per-word invalidation
// (§2.2, §4): every store propagates the written word's address to all other
// copies, where it is buffered (a dirty bit per word); a local access to a
// word with a buffered invalidation invalidates the block copy and misses.
// Write misses allocate. There is no ownership (stores write through), so
// MIN's miss count equals the essential miss count of the trace and its
// false-sharing component is zero by construction.
type MIN struct {
	base
	blocks *dense.Map[minBlock]
	slab   *dense.Arena[uint64] // one cell per block: pend, words long
}

type minBlock struct {
	present uint64 // procs with a copy
	pend    uint32 // arena handle, per word: procs with a buffered invalidation
	life    uint32 // lifetime handle
}

// NewMIN returns a MIN simulator.
func NewMIN(procs int, g mem.Geometry) *MIN {
	return &MIN{
		base:   newBase("MIN", procs, g),
		blocks: dense.NewMap[minBlock](0),
		slab:   dense.NewArena[uint64](g.WordsPerBlock()),
	}
}

func (s *MIN) block(b mem.Block) *minBlock {
	mb, existed := s.blocks.GetOrPut(uint64(b))
	if !existed {
		mb.pend = s.slab.Alloc()
		mb.life = s.newLifetime(b)
	}
	return mb
}

// Ref implements trace.Consumer.
func (s *MIN) Ref(r trace.Ref) {
	if !r.Kind.IsData() {
		return
	}
	s.dataRefs++
	p := int(r.Proc)
	mb := s.block(s.g.BlockOf(r.Addr))
	pend := s.slab.Slice(mb.pend)
	bit := uint64(1) << uint(p)
	off := s.g.OffsetOf(r.Addr)

	switch {
	case mb.present&bit == 0: // cold-path miss: allocate (also on writes)
		s.miss(p, mb.life)
		mb.present |= bit
		clearPending(pend, bit)
	case pend[off]&bit != 0: // buffered invalidation on this word
		s.closeLifetime(p, mb.life)
		s.miss(p, mb.life) // refetch a fresh copy
		clearPending(pend, bit)
	}
	s.accessed(p, mb.life, r.Addr)

	if r.Kind == trace.Store {
		s.writeThroughs++
		sharers := mb.present &^ bit
		if sharers != 0 {
			// One word-invalidation message per remote copy,
			// buffered at each receiver.
			s.invalidations += uint64(popcount(sharers))
			pend[off] |= sharers
		}
		s.stored(p, mb.life, r.Addr)
	}
}

// RefBatch implements trace.BatchConsumer.
func (s *MIN) RefBatch(refs []trace.Ref) {
	for _, r := range refs {
		s.Ref(r)
	}
}

// Finish implements Simulator.
func (s *MIN) Finish() Result { return s.result() }

func clearPending(pend []uint64, bit uint64) {
	for i := range pend {
		pend[i] &^= bit
	}
}

func popcount(m uint64) int { return bits.OnesCount64(m) }
