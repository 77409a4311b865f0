package coherence

import (
	"repro/internal/dense"
	"repro/internal/mem"
	"repro/internal/trace"
)

// SD is the send-delayed protocol (§4): a store by the block's owner
// completes immediately (its invalidations are performed at once), while a
// store to a non-owned block is buffered; all buffered stores are sent —
// combined per block — at the processor's next release, acquiring ownership
// then. Received invalidations are performed immediately in the cache.
type SD struct {
	base
	blocks  *dense.Map[sdBlock]
	buffers [][]mem.Block // per proc: blocks with buffered stores
}

type sdBlock struct {
	present  uint64
	buffered uint64 // procs holding a buffered store to this block
	life     uint32 // lifetime handle
	owner    int8
}

// NewSD returns a send-delayed simulator.
func NewSD(procs int, g mem.Geometry) *SD {
	return &SD{
		base:    newBase("SD", procs, g),
		blocks:  dense.NewMap[sdBlock](0),
		buffers: make([][]mem.Block, procs),
	}
}

func (s *SD) block(b mem.Block) *sdBlock {
	sb, existed := s.blocks.GetOrPut(uint64(b))
	if !existed {
		sb.owner = -1
		sb.life = s.newLifetime(b)
	}
	return sb
}

// Ref implements trace.Consumer.
func (s *SD) Ref(r trace.Ref) {
	p := int(r.Proc)
	switch r.Kind {
	case trace.Load:
		s.load(p, r.Addr)
	case trace.Store:
		s.store(p, r.Addr)
	case trace.Release:
		s.release(p)
	}
}

// RefBatch implements trace.BatchConsumer.
func (s *SD) RefBatch(refs []trace.Ref) {
	for _, r := range refs {
		s.Ref(r)
	}
}

func (s *SD) load(p int, a mem.Addr) {
	s.dataRefs++
	sb := s.block(s.g.BlockOf(a))
	bit := uint64(1) << uint(p)
	if sb.present&bit == 0 {
		s.miss(p, sb.life)
		sb.present |= bit
	}
	s.accessed(p, sb.life, a)
}

func (s *SD) store(p int, a mem.Addr) {
	s.dataRefs++
	blk := s.g.BlockOf(a)
	sb := s.block(blk)
	bit := uint64(1) << uint(p)

	if sb.owner == int8(p) {
		// The owner's store completes without delay: invalidate any
		// copies that appeared since it took ownership.
		s.invalidateSharers(sb, bit)
	} else {
		if sb.present&bit == 0 {
			s.miss(p, sb.life) // the data is needed now; only the send is delayed
			sb.present |= bit
		}
		if sb.buffered&bit == 0 {
			sb.buffered |= bit
			s.buffers[p] = append(s.buffers[p], blk)
		}
	}
	s.accessed(p, sb.life, a)
	s.stored(p, sb.life, a)
}

// release flushes the processor's store buffer: each buffered block's
// combined invalidation is sent (and performed immediately at the
// receivers), and the processor takes ownership. A copy lost between the
// buffered store and the release must be refetched: a miss.
func (s *SD) release(p int) {
	bit := uint64(1) << uint(p)
	for _, blk := range s.buffers[p] {
		sb := s.blocks.Get(uint64(blk))
		if sb.present&bit == 0 {
			// Someone else took ownership in between and
			// invalidated our copy; refetch to complete the store.
			s.miss(p, sb.life)
			sb.present |= bit
		} else if sb.owner != int8(p) {
			s.upgrades++
		}
		sb.owner = int8(p)
		s.invalidateSharers(sb, bit)
		sb.buffered &^= bit
	}
	s.buffers[p] = s.buffers[p][:0]
}

func (s *SD) invalidateSharers(sb *sdBlock, bit uint64) {
	sharers := sb.present &^ bit
	if sharers == 0 {
		return
	}
	forEachProc(sharers, func(q int) { s.invalidate(q, sb.life) })
	sb.present &= bit
}

// Finish implements Simulator. Stores still buffered at the end of the
// trace are flushed first, as if each processor ended with a release.
func (s *SD) Finish() Result {
	for p := range s.buffers {
		s.release(p)
	}
	return s.result()
}
