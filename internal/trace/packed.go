package trace

import (
	"context"
	"io"

	"repro/internal/mem"
)

// The packed word layout: one uint64 per reference,
// addr<<19 | proc<<3 | kind. Proc keeps all 16 bits of Ref.Proc and kind
// the 3 bits every defined Kind fits in, which leaves 45 address bits.
const (
	packKindBits = 3
	packProcBits = 16
	packAddrBit  = packProcBits + packKindBits

	// MaxPackedAddr is the largest address a Packed trace can hold (2^45-1
	// words). A stream with a larger address is not packed: CollectPacked
	// reports it incomplete, exactly like a stream over its budget.
	MaxPackedAddr = mem.Addr(1)<<(64-packAddrBit) - 1

	maxPackedKind = Kind(1)<<packKindBits - 1
)

func packRef(r Ref) uint64 {
	return uint64(r.Addr)<<packAddrBit | uint64(r.Proc)<<packKindBits | uint64(r.Kind)
}

func unpackRef(w uint64) Ref {
	return Ref{Addr: mem.Addr(w >> packAddrBit), Proc: uint16(w >> packKindBits), Kind: Kind(w & uint64(maxPackedKind))}
}

// Packed is an in-memory trace held at 8 bytes per reference, half a
// Trace's 16: the materialize-once form behind the sweep engine's trace
// cache. A Packed trace serves any number of concurrent replay Readers.
type Packed struct {
	procs int
	words []uint64
}

// Len returns the number of references.
func (p *Packed) Len() int { return len(p.words) }

// Reader returns a Reader over the trace. Multiple concurrent readers over
// the same trace are independent.
func (p *Packed) Reader() Reader {
	return &packedReader{procs: p.procs, words: p.words}
}

// CollectPacked drains at most maxRefs references from r into a Packed
// trace and closes r, reporting the close error if the drain itself
// succeeded. The second result reports whether the whole stream was
// packed: false means the stream held more than maxRefs references, or a
// reference the word layout cannot hold (an address above MaxPackedAddr),
// and nothing was kept. Cancellation is checked once per batch. Every
// reference drained, up to maxRefs, counts toward trace.collect.refs.
func CollectPacked(ctx context.Context, r Reader, maxRefs int64) (*Packed, bool, error) {
	maxRefs = max(maxRefs, 0)
	var words []uint64
	var drained int64
	all, err := drainBatches(ctx, r, func(refs []Ref) bool {
		if room := maxRefs - drained; int64(len(refs)) > room {
			drained = maxRefs
			return false
		}
		drained += int64(len(refs))
		for _, ref := range refs {
			if ref.Addr > MaxPackedAddr || ref.Kind > maxPackedKind {
				return false
			}
			words = append(words, packRef(ref))
		}
		return true
	})
	if err != nil {
		return nil, false, err
	}
	mCollectRefs.Add(uint64(drained))
	if !all {
		return nil, false, nil
	}
	// Copy out of the append-grown slice so the trace holds no unused
	// capacity.
	exact := make([]uint64, len(words))
	copy(exact, words)
	return &Packed{procs: r.NumProcs(), words: exact}, true, nil
}

type packedReader struct {
	procs int
	words []uint64 // the references not yet read
}

func (r *packedReader) NumProcs() int { return r.procs }

func (r *packedReader) Next() (Ref, error) {
	if len(r.words) == 0 {
		return Ref{}, io.EOF
	}
	ref := unpackRef(r.words[0])
	r.words = r.words[1:]
	return ref, nil
}

// NextBatch implements BatchReader by unpacking straight into buf.
func (r *packedReader) NextBatch(buf []Ref) (int, error) {
	if len(r.words) == 0 {
		return 0, io.EOF
	}
	n := min(len(buf), len(r.words))
	src, dst := r.words[:n], buf[:n]
	for i, w := range src {
		dst[i] = unpackRef(w)
	}
	r.words = r.words[n:]
	return n, nil
}
