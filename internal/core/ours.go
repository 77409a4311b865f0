package core

import (
	"math/bits"

	"repro/internal/dense"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Classifier implements the paper's Appendix A algorithm: it classifies the
// misses of an on-the-fly (OTF) write-invalidate execution over an infinite
// cache into PC, CTS, CFS, PTS and PFS misses. Feed it every trace reference
// in order (it implements trace.Consumer and ignores synchronization and
// phase references), then call Finish.
//
// Its essential count (Counts.Essential) is the minimum possible number of
// misses for the trace at this block size, and its total (Counts.Total)
// equals the miss count of a plain on-the-fly invalidation schedule.
type Classifier struct {
	life     *Lifetimes
	blocks   *dense.Map[oursBlock]
	dataRefs uint64
}

// oursBlock is one block's entry: the processors holding a copy and the
// block's lifetime record.
type oursBlock struct {
	present uint64
	life    uint32 // Lifetimes handle
}

// NewClassifier returns a Classifier for procs processors (at most MaxProcs)
// and block geometry g.
func NewClassifier(procs int, g mem.Geometry) *Classifier {
	return &Classifier{
		life:   NewLifetimes(procs, g),
		blocks: dense.NewMap[oursBlock](0),
	}
}

// Ref implements trace.Consumer.
func (c *Classifier) Ref(r trace.Ref) {
	switch r.Kind {
	case trace.Load:
		c.access(int(r.Proc), r.Addr, false)
	case trace.Store:
		c.access(int(r.Proc), r.Addr, true)
	}
}

// RefBatch implements trace.BatchConsumer.
func (c *Classifier) RefBatch(refs []trace.Ref) {
	for _, r := range refs {
		c.Ref(r)
	}
}

// access is the paper's read_action/write_action pair.
func (c *Classifier) access(p int, a mem.Addr, store bool) {
	c.dataRefs++
	b := c.life.Geometry().BlockOf(a)
	bit := uint64(1) << uint(p)

	ob, existed := c.blocks.GetOrPut(uint64(b))
	if !existed {
		ob.life = c.life.NewBlock(b)
	}
	// read_action: a miss opens a new lifetime.
	if ob.present&bit == 0 {
		c.life.OpenMiss(p, ob.life)
		ob.present |= bit
	}
	// read_action: accessing a communicated word makes the lifetime
	// essential.
	c.life.Access(p, ob.life, a)

	if !store {
		return
	}
	// write_action: classify every other present copy (their lifetimes
	// end now, on the fly), then flag the new value as uncommunicated for
	// every other processor.
	others := ob.present &^ bit
	for others != 0 {
		q := bits.TrailingZeros64(others)
		others &^= 1 << uint(q)
		c.life.CloseInvalidate(q, ob.life)
	}
	ob.present = bit
	c.life.RecordStore(p, ob.life, a)
}

// DataRefs returns the number of data references classified so far: the
// miss-rate denominator.
func (c *Classifier) DataRefs() uint64 { return c.dataRefs }

// Hook installs a per-miss callback, invoked with each miss's verdict when
// its lifetime closes (the paper's scheme decides at lifetime end, not at
// miss time). Install before feeding references.
func (c *Classifier) Hook(fn func(p int, b mem.Block, class Class)) {
	c.life.OnClassify = fn
}

// Snapshot returns the verdicts recorded so far, excluding still-open
// lifetimes. Used for phase-resolved series.
func (c *Classifier) Snapshot() Counts { return c.life.Snapshot() }

// Finish classifies the lifetimes still open at the end of the trace and
// returns the totals. The classifier must not be used afterwards.
func (c *Classifier) Finish() Counts {
	mOursRefs.Add(c.dataRefs)
	return c.life.Finish()
}

// Classify runs the Appendix A algorithm over an entire trace stream and
// returns the miss counts and the number of data references.
func Classify(r trace.Reader, g mem.Geometry) (Counts, uint64, error) {
	c := NewClassifier(r.NumProcs(), g)
	if err := trace.Drive(r, c); err != nil {
		return Counts{}, 0, err
	}
	return c.Finish(), c.DataRefs(), nil
}
