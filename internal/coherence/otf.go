package coherence

import (
	"repro/internal/dense"
	"repro/internal/mem"
	"repro/internal/trace"
)

// OTF is the on-the-fly schedule: every store's invalidations are performed
// immediately, before the next trace reference. Its miss rate is "the miss
// rate usually derived when using trace-driven simulations" (§4), and its
// miss decomposition is exactly the paper's Appendix A classification.
type OTF struct {
	base
	blocks *dense.Map[presentBlock]
}

// NewOTF returns an on-the-fly simulator.
func NewOTF(procs int, g mem.Geometry) *OTF {
	return &OTF{base: newBase("OTF", procs, g), blocks: dense.NewMap[presentBlock](0)}
}

// Ref implements trace.Consumer. Synchronization references are free under
// OTF: there is nothing to delay.
func (s *OTF) Ref(r trace.Ref) {
	if !r.Kind.IsData() {
		return
	}
	s.dataRefs++
	p := int(r.Proc)
	blk := s.g.BlockOf(r.Addr)
	bit := uint64(1) << uint(p)

	pb, existed := s.blocks.GetOrPut(uint64(blk))
	if !existed {
		pb.life = s.newLifetime(blk)
	}
	missed := pb.present&bit == 0
	if missed {
		s.miss(p, pb.life)
		pb.present |= bit
	}
	s.accessed(p, pb.life, r.Addr)

	if r.Kind == trace.Store {
		others := pb.present &^ bit
		if others != 0 {
			if !missed {
				s.upgrades++ // ownership taken without a miss
			}
			forEachProc(others, func(q int) { s.invalidate(q, pb.life) })
			pb.present = bit
		}
		s.stored(p, pb.life, r.Addr)
	}
}

// RefBatch implements trace.BatchConsumer.
func (s *OTF) RefBatch(refs []trace.Ref) {
	for _, r := range refs {
		s.Ref(r)
	}
}

// Finish implements Simulator.
func (s *OTF) Finish() Result { return s.result() }
