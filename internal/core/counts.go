// Package core implements the paper's central contribution: the
// classification of multiprocessor cache misses into essential and useless
// misses, based on interprocessor communication (Dubois et al., ISCA 1993,
// §2 and Appendix A), together with the two earlier classifications it is
// compared against (Eggers' and Torrellas' schemes, §3).
//
// The classes are:
//
//   - PC  (pure cold): first miss by a processor to a block nobody had
//     modified when the miss occurred.
//   - CTS (cold + true sharing): a cold miss to a modified block whose new
//     values the processor goes on to access during the block's lifetime.
//   - CFS (cold + false sharing): a cold miss to a modified block whose new
//     values the processor never accesses during the lifetime.
//   - PTS (pure true sharing): a non-cold miss that communicates at least
//     one value defined by another processor since this processor's last
//     essential miss to the block.
//   - PFS (pure false sharing): every other miss. These are the useless
//     misses: the execution would remain correct if they (or the
//     invalidations leading to them) never happened.
//
// Essential misses = cold + PTS; they are the minimum miss count for the
// trace at the given block size.
//
// All classifiers assume infinite caches and a write-invalidate protocol,
// like the paper. They support at most 64 processors (the paper uses 16);
// processor sets are kept in single-word bitmasks.
package core

// MaxProcs is the largest processor count the classifiers support.
// Processor sets are stored in 64-bit masks.
const MaxProcs = 64

// Counts holds per-class miss counts under the paper's classification.
// Repl is only produced by the finite-cache extension (§8: "it can easily
// be extended to finite caches by introducing replacement misses. A
// replacement miss is an essential miss"); infinite-cache runs leave it 0.
type Counts struct {
	PC   uint64 // pure cold
	CTS  uint64 // cold and true sharing
	CFS  uint64 // cold and false sharing
	PTS  uint64 // pure true sharing
	PFS  uint64 // pure false sharing (useless)
	Repl uint64 // replacement misses (finite caches only)
}

// Cold returns all cold misses (PC+CTS+CFS); this equals Eggers' cold count.
func (c Counts) Cold() uint64 { return c.PC + c.CTS + c.CFS }

// Essential returns the essential misses: cold, pure true sharing, and
// (with finite caches) replacement misses. This is the minimum number of
// misses for the trace (the MIN protocol's miss count when caches are
// infinite).
func (c Counts) Essential() uint64 { return c.Cold() + c.PTS + c.Repl }

// Useless returns the useless misses (PFS).
func (c Counts) Useless() uint64 { return c.PFS }

// Total returns all misses.
func (c Counts) Total() uint64 { return c.Cold() + c.PTS + c.PFS + c.Repl }

// Add returns the element-wise sum of two Counts.
func (c Counts) Add(o Counts) Counts {
	return Counts{
		PC:   c.PC + o.PC,
		CTS:  c.CTS + o.CTS,
		CFS:  c.CFS + o.CFS,
		PTS:  c.PTS + o.PTS,
		PFS:  c.PFS + o.PFS,
		Repl: c.Repl + o.Repl,
	}
}

// Sharing collapses the five classes into the three-way cold/true/false
// split used when comparing against the earlier classifications (Table 1).
func (c Counts) Sharing() SharingCounts {
	return SharingCounts{Cold: c.Cold(), True: c.PTS, False: c.PFS}
}

// SharingCounts is the three-way split reported by Eggers' and Torrellas'
// classifications: cold misses, true sharing misses, false sharing misses.
type SharingCounts struct {
	Cold  uint64
	True  uint64
	False uint64
}

// Total returns all misses.
func (s SharingCounts) Total() uint64 { return s.Cold + s.True + s.False }

// Rate returns n as a percentage of refs, the form used by the paper's
// figures (miss rate over data references). It returns 0 when refs is 0.
func Rate(n, refs uint64) float64 {
	if refs == 0 {
		return 0
	}
	return 100 * float64(n) / float64(refs)
}

// othersMask returns the set of all processors except p, for procs
// processors total.
func othersMask(procs, p int) uint64 {
	return allMask(procs) &^ (1 << uint(p))
}

// allMask returns the set of all processors.
func allMask(procs int) uint64 {
	if procs >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(procs) - 1
}
