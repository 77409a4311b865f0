package coherence

import (
	"math/bits"

	"repro/internal/dense"
	"repro/internal/mem"
	"repro/internal/trace"
)

// MAX is the worst-case propagation of invalidations consistent with
// release consistency (§4): each store may be performed — independently per
// receiving processor — at any time between its issue and the issuing
// processor's next release, and the schedule is chosen to maximize misses.
//
// The simulator plays the adversary with a greedy that dominates every
// legal schedule on infinite caches: every store grants one invalidation
// "credit" per remote processor, alive until the sender's next release.
// Just before a processor touches a block it holds, the adversary spends one
// live credit against it, performing that invalidation first so the access
// misses. Credits still alive at the sender's release are performed then
// (release consistency requires it), invalidating whatever copies remain so
// their owners' next accesses miss too. Invalidating can never reduce
// future misses in an infinite cache, so an access misses under this greedy
// whenever it could miss under any legal schedule.
type MAX struct {
	base
	blocks *dense.Map[maxBlock]
	// issuedSlab holds one cell per contested block (procs counters);
	// consumedSlab holds one cell per block that spent a credit
	// (procs*procs counters, flattened [sender*procs+receiver]). Both are
	// lazy: most blocks are never contested.
	issuedSlab   *dense.Arena[uint32]
	consumedSlab *dense.Arena[uint32]
	open         [][]mem.Block // per sender: blocks with credits issued since its last release
}

type maxBlock struct {
	present uint64
	// live holds the senders with credits issued since their last
	// release: the nonzero entries of the issued cell.
	live uint64
	life uint32 // lifetime handle
	// issued is the arena handle of per-sender credit counts since that
	// sender's last release; consumed the handle of per-(sender,receiver)
	// spent counts. 0 means not yet allocated.
	issued   uint32
	consumed uint32
	owner    int8
}

// NewMAX returns a worst-case-schedule simulator.
func NewMAX(procs int, g mem.Geometry) *MAX {
	return &MAX{
		base:         newBase("MAX", procs, g),
		blocks:       dense.NewMap[maxBlock](0),
		issuedSlab:   dense.NewArena[uint32](procs),
		consumedSlab: dense.NewArena[uint32](procs * procs),
		open:         make([][]mem.Block, procs),
	}
}

func (s *MAX) block(b mem.Block) *maxBlock {
	mb, existed := s.blocks.GetOrPut(uint64(b))
	if !existed {
		mb.owner = -1
		mb.life = s.newLifetime(b)
	}
	return mb
}

// Ref implements trace.Consumer.
func (s *MAX) Ref(r trace.Ref) {
	p := int(r.Proc)
	switch r.Kind {
	case trace.Load, trace.Store:
		s.access(p, r.Addr, r.Kind == trace.Store)
	case trace.Release:
		s.releaseCredits(p)
	}
}

// RefBatch implements trace.BatchConsumer.
func (s *MAX) RefBatch(refs []trace.Ref) {
	for _, r := range refs {
		s.Ref(r)
	}
}

func (s *MAX) access(p int, a mem.Addr, store bool) {
	s.dataRefs++
	blk := s.g.BlockOf(a)
	mb := s.block(blk)
	bit := uint64(1) << uint(p)

	// Adversary move: if p holds a copy and some sender has a live
	// credit against p on this block, perform that invalidation just
	// before the access so the access misses.
	if mb.present&bit != 0 && s.spendCredit(mb, p) {
		mb.present &^= bit
		s.invalidate(p, mb.life)
	}

	missed := mb.present&bit == 0
	if missed {
		s.miss(p, mb.life)
		mb.present |= bit
	}
	s.accessed(p, mb.life, a)

	if store {
		if !missed && mb.owner != int8(p) {
			s.upgrades++
		}
		mb.owner = int8(p)
		s.stored(p, mb.life, a)
		// Issue one credit per remote processor.
		if mb.issued == 0 {
			mb.issued = s.issuedSlab.Alloc()
		}
		issued := s.issuedSlab.Slice(mb.issued)
		if issued[p] == 0 {
			s.open[p] = append(s.open[p], blk)
			mb.live |= bit
		}
		issued[p]++
	}
}

// spendCredit consumes one live credit targeting processor q's copy, if any
// sender has one, and reports whether it did. Senders are tried in
// ascending order, so the lowest one with an unspent credit pays.
func (s *MAX) spendCredit(mb *maxBlock, q int) bool {
	senders := mb.live &^ (1 << uint(q))
	if senders == 0 {
		return false
	}
	issued := s.issuedSlab.Slice(mb.issued)
	for senders != 0 {
		sender := bits.TrailingZeros64(senders)
		senders &^= 1 << uint(sender)
		if s.consumedCount(mb, sender, q) >= issued[sender] {
			continue
		}
		s.consumedRow(mb, sender)[q]++
		return true
	}
	return false
}

func (s *MAX) consumedCount(mb *maxBlock, sender, q int) uint32 {
	if mb.consumed == 0 {
		return 0
	}
	return s.consumedSlab.Slice(mb.consumed)[sender*s.procs+q]
}

func (s *MAX) consumedRow(mb *maxBlock, sender int) []uint32 {
	if mb.consumed == 0 {
		mb.consumed = s.consumedSlab.Alloc()
	}
	row := sender * s.procs
	return s.consumedSlab.Slice(mb.consumed)[row : row+s.procs]
}

// releaseCredits is the deadline: all of sender p's open credits must be
// performed now. Each remaining copy with an unspent credit from p is
// invalidated; the credit books for p are then cleared.
func (s *MAX) releaseCredits(p int) {
	for _, blk := range s.open[p] {
		mb := s.blocks.Get(uint64(blk))
		issued := s.issuedSlab.Slice(mb.issued)
		if issued[p] == 0 {
			continue
		}
		targets := mb.present &^ (1 << uint(p))
		for targets != 0 {
			q := bits.TrailingZeros64(targets)
			qbit := uint64(1) << uint(q)
			targets &^= qbit
			if s.consumedCount(mb, p, q) >= issued[p] {
				continue // every credit already spent on q
			}
			mb.present &^= qbit
			s.invalidate(q, mb.life)
		}
		issued[p] = 0
		mb.live &^= 1 << uint(p)
		if mb.consumed != 0 {
			clear(s.consumedRow(mb, p))
		}
	}
	s.open[p] = s.open[p][:0]
}

// Finish implements Simulator. Credits never released stay unperformed:
// performing them could only invalidate copies nobody touches again.
func (s *MAX) Finish() Result { return s.result() }
