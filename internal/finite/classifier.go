package finite

import (
	"context"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Classifier extends the paper's Appendix A classification to finite
// caches (§8): each processor runs a set-associative cache; an access whose
// block was evicted since the last fetch is a replacement miss (essential
// by definition), while coherence misses keep their PTS/PFS split and the
// first miss per (processor, block) stays a cold miss. Invalidations follow
// the on-the-fly schedule, like the infinite-cache Classifier.
type Classifier struct {
	life     *core.Lifetimes
	geom     mem.Geometry
	caches   []*Cache
	blocks   *dense.Map[finiteBlock]
	dataRefs uint64
}

// finiteBlock is one block's entry: the processors whose cached copy is
// coherent, and the block's lifetime handle.
type finiteBlock struct {
	present uint64
	life    uint32
}

// Config describes the per-processor cache.
type Config struct {
	// CapacityBytes is each processor's cache size.
	CapacityBytes int
	// Assoc is the set associativity (1 = direct mapped).
	Assoc int
	// Policy selects the replacement policy (default LRU).
	Policy Policy
}

// NewClassifier returns a finite-cache classifier for procs processors.
func NewClassifier(procs int, g mem.Geometry, cfg Config) (*Classifier, error) {
	c := &Classifier{
		life:   core.NewLifetimes(procs, g),
		geom:   g,
		caches: make([]*Cache, procs),
		blocks: dense.NewMap[finiteBlock](0),
	}
	for p := range c.caches {
		cache, err := NewCache(cfg.CapacityBytes, cfg.Assoc, g, cfg.Policy)
		if err != nil {
			return nil, err
		}
		c.caches[p] = cache
	}
	return c, nil
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

func (c *Classifier) access(p int, a mem.Addr, store bool) {
	c.dataRefs++
	b := c.geom.BlockOf(a)
	bit := uint64(1) << uint(p)
	cache := c.caches[p]

	fb, existed := c.blocks.GetOrPut(uint64(b))
	if !existed {
		fb.life = c.life.NewBlock(b)
	}
	if !cache.Lookup(b) {
		// Miss: close the stale lifetime as a replacement if the
		// copy was evicted (an invalidation already closed it). The
		// victim's entry exists already, so evict inserts nothing and
		// fb stays valid.
		c.life.OpenMiss(p, fb.life)
		if evicted, ok := cache.Insert(b); ok {
			c.evict(p, evicted)
		}
		fb.present |= bit
	}
	c.life.Access(p, fb.life, a)

	if !store {
		return
	}
	// Invalidate every other processor: cached copies are removed and
	// their lifetimes classified; already-evicted copies lose a pending
	// replacement mark (the next miss would happen regardless of cache
	// size, so it is a coherence miss).
	for q := 0; q < len(c.caches); q++ {
		if q == p {
			continue
		}
		c.life.CloseInvalidate(q, fb.life)
		if fb.present&(1<<uint(q)) != 0 {
			c.caches[q].Invalidate(b)
		}
	}
	fb.present = bit
	c.life.RecordStore(p, fb.life, a)
}

// RefBatch implements trace.BatchConsumer.
func (c *Classifier) RefBatch(refs []trace.Ref) {
	for _, r := range refs {
		c.Ref(r)
	}
}

// evict closes the lifetime of a replaced block so the processor's next
// miss on it counts as a replacement miss.
func (c *Classifier) evict(p int, b mem.Block) {
	fb := c.blocks.Get(uint64(b))
	fb.present &^= uint64(1) << uint(p)
	c.life.CloseReplace(p, fb.life)
}

// DataRefs returns the number of data references classified so far.
func (c *Classifier) DataRefs() uint64 { return c.dataRefs }

// Finish classifies the remaining open lifetimes and returns the totals,
// including the Repl component.
func (c *Classifier) Finish() core.Counts {
	mFiniteRefs.Add(c.dataRefs)
	return c.life.Finish()
}

// Classify runs the finite-cache classification over a trace stream.
func Classify(r trace.Reader, g mem.Geometry, cfg Config) (core.Counts, uint64, error) {
	return ClassifyContext(context.Background(), r, g, cfg)
}

// ClassifyContext is Classify with a cancellation context, observed at batch
// granularity by the replay pump.
func ClassifyContext(ctx context.Context, r trace.Reader, g mem.Geometry, cfg Config) (core.Counts, uint64, error) {
	c, err := NewClassifier(r.NumProcs(), g, cfg)
	if err != nil {
		trace.CloseReader(r) //nolint:errcheck // error path cleanup
		return core.Counts{}, 0, err
	}
	if err := trace.DriveContext(ctx, r, c); err != nil {
		return core.Counts{}, 0, err
	}
	return c.Finish(), c.DataRefs(), nil
}
