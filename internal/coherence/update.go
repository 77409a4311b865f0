package coherence

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/mem"
	"repro/internal/trace"
)

// The paper's conclusion (§8) observes that at large block sizes the
// remaining misses are dominated by true sharing plus the cost of
// ownership, and that "delayed write-broadcast or delayed protocols with
// competitive updates, which can reduce the number of essential misses, may
// become attractive". These two simulators implement that design point as
// an extension: they are not among the paper's seven schedules, but they
// complete its conclusion with numbers.

// ExtensionProtocols lists the update-based schedules implemented beyond
// the paper's seven (§8 outlook): "WU" (pure write-update) and "CU"
// (competitive update with the default threshold).
var ExtensionProtocols = []string{"WU", "CU"}

// DefaultCompetitiveThreshold is the number of consecutive remote updates
// after which a competitive-update copy self-invalidates.
const DefaultCompetitiveThreshold = 4

// WU is a write-update (write-broadcast) protocol: a store propagates the
// new value to every copy instead of invalidating, so with infinite caches
// the only misses left are cold misses — below even the essential miss rate
// of the write-invalidate classification, at the price of one update
// message per remote copy per store.
type WU struct {
	base
	blocks  *dense.Map[presentBlock]
	updates uint64
}

// NewWU returns a write-update simulator.
func NewWU(procs int, g mem.Geometry) *WU {
	return &WU{base: newBase("WU", procs, g), blocks: dense.NewMap[presentBlock](0)}
}

// Ref implements trace.Consumer.
func (s *WU) Ref(r trace.Ref) {
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
	if pb.present&bit == 0 {
		s.miss(p, pb.life)
		pb.present |= bit
	}
	s.accessed(p, pb.life, r.Addr)
	if r.Kind == trace.Store {
		s.updates += uint64(popcount(pb.present &^ bit))
		s.stored(p, pb.life, r.Addr)
	}
}

// RefBatch implements trace.BatchConsumer.
func (s *WU) RefBatch(refs []trace.Ref) {
	for _, r := range refs {
		s.Ref(r)
	}
}

// Finish implements Simulator.
func (s *WU) Finish() Result {
	res := s.result()
	res.Updates = s.updates
	return res
}

// CU is a competitive-update protocol: stores update remote copies like WU,
// but each copy carries a countdown — a remote update decrements it, a
// local access resets it, and at zero the copy self-invalidates, so copies
// that stopped being used stop receiving updates. The threshold trades
// update traffic against extra misses; the classic competitive argument
// bounds either cost to a constant factor of the other.
type CU struct {
	base
	threshold uint8
	blocks    *dense.Map[cuBlock]
	slab      *dense.Arena[uint8] // one cell per block: per-proc countdowns
	updates   uint64
}

type cuBlock struct {
	present uint64
	count   uint32 // arena handle, per processor: remaining remote updates before self-invalidation
	life    uint32 // lifetime handle
}

// NewCU returns a competitive-update simulator with the given threshold
// (>=1); use DefaultCompetitiveThreshold for the standard setting.
func NewCU(procs int, g mem.Geometry, threshold int) (*CU, error) {
	if threshold < 1 || threshold > 255 {
		return nil, fmt.Errorf("coherence: competitive threshold %d out of range [1,255]", threshold)
	}
	return &CU{
		base:      newBase("CU", procs, g),
		threshold: uint8(threshold),
		blocks:    dense.NewMap[cuBlock](0),
		slab:      dense.NewArena[uint8](procs),
	}, nil
}

func (s *CU) block(b mem.Block) *cuBlock {
	cb, existed := s.blocks.GetOrPut(uint64(b))
	if !existed {
		cb.count = s.slab.Alloc()
		cb.life = s.newLifetime(b)
	}
	return cb
}

// Ref implements trace.Consumer.
func (s *CU) Ref(r trace.Ref) {
	if !r.Kind.IsData() {
		return
	}
	s.dataRefs++
	p := int(r.Proc)
	blk := s.g.BlockOf(r.Addr)
	cb := s.block(blk)
	count := s.slab.Slice(cb.count)
	bit := uint64(1) << uint(p)

	if cb.present&bit == 0 {
		s.miss(p, cb.life)
		cb.present |= bit
	}
	count[p] = s.threshold // local use resets the countdown
	s.accessed(p, cb.life, r.Addr)

	if r.Kind == trace.Store {
		sharers := cb.present &^ bit
		s.updates += uint64(popcount(sharers))
		forEachProc(sharers, func(q int) {
			count[q]--
			if count[q] == 0 {
				cb.present &^= 1 << uint(q)
				s.invalidate(q, cb.life)
			}
		})
		s.stored(p, cb.life, r.Addr)
	}
}

// RefBatch implements trace.BatchConsumer.
func (s *CU) RefBatch(refs []trace.Ref) {
	for _, r := range refs {
		s.Ref(r)
	}
}

// Finish implements Simulator.
func (s *CU) Finish() Result {
	res := s.result()
	res.Updates = s.updates
	return res
}
