package tracestore

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/trace"
)

// uv appends each value as a uvarint.
func uv(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// cat concatenates byte slices.
func cat(parts ...[]byte) []byte {
	var b []byte
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// rawSegment is a segment payload spelled out field by field: the count
// header and the four columns, whose lengths the header records.
type rawSegment struct {
	refs, data, side           uint64
	ops, procs, addrs, sideCol []byte
}

func (s rawSegment) encode() []byte {
	return cat(uv(s.refs, s.data, s.side,
		uint64(len(s.ops)), uint64(len(s.procs)), uint64(len(s.addrs)), uint64(len(s.sideCol))),
		s.ops, s.procs, s.addrs, s.sideCol)
}

// info is the index entry that agrees with the payload's count header.
func (s rawSegment) info() SegmentInfo {
	return SegmentInfo{Refs: s.refs, DataRefs: s.data, SideRefs: s.side}
}

// validSegment decodes to L(0,8) ACQ(1,1000) S(1,16) on two processors:
// one run per processor, the acquire at position 1.
func validSegment() rawSegment {
	return rawSegment{
		refs: 3, data: 2, side: 1,
		ops:     []byte{0b10},
		procs:   uv(0, 1, 1, 1),
		addrs:   uv(zigzag(8), zigzag(16)),
		sideCol: cat(uv(1), []byte{byte(trace.Acquire)}, uv(1, 1000)),
	}
}

// decoder is a segment decoder's signature: decodeSegment and the
// reference it replaced.
type decoder func(enc []byte, s SegmentInfo, procs int, lastAddr []uint64, dst []trace.Ref) ([]trace.Ref, error)

// decoders names both decoders for the table-driven tests.
var decoders = []struct {
	name string
	dec  decoder
}{{"kernel", decodeSegment}, {"reference", decodeSegmentRef}}

// decodeChecked runs dec over a two-processor payload, turning a panic into
// a test failure.
func decodeChecked(t *testing.T, dec decoder, enc []byte, s SegmentInfo) (refs []trace.Ref, err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("decoder panicked: %v", p)
		}
	}()
	return dec(enc, s, 2, make([]uint64, 2), nil)
}

func TestDecodeSegmentValidBaseline(t *testing.T) {
	s := validSegment()
	want := []trace.Ref{trace.L(0, 8), trace.A(1, 1000), trace.S(1, 16)}
	for _, d := range decoders {
		got, err := decodeChecked(t, d.dec, s.encode(), s.info())
		if err != nil {
			t.Fatalf("%s: decode: %v", d.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: decoded %d refs, want %d", d.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: ref %d: got %v, want %v", d.name, i, got[i], want[i])
			}
		}
	}
}

// TestDecodeSegmentRejectsMalformed reaches every structural check of the
// decoders with a payload that fails that check, bypassing the payload CRC
// that guards them on the Cursor path. Each must fail with an error
// wrapping ErrCorrupt, never panic or decode.
func TestDecodeSegmentRejectsMalformed(t *testing.T) {
	v := validSegment()
	with := func(edit func(*rawSegment)) rawSegment {
		s := v
		edit(&s)
		return s
	}
	withIndex := func(edit func(*SegmentInfo)) SegmentInfo {
		s := v.info()
		edit(&s)
		return s
	}
	cases := []struct {
		name string
		seg  rawSegment
		enc  []byte       // overrides seg.encode() when set
		idx  *SegmentInfo // overrides seg.info() when set
	}{
		{name: "refs disagree with index", seg: v, idx: ptr(withIndex(func(s *SegmentInfo) { s.Refs++ }))},
		{name: "data refs disagree with index", seg: v, idx: ptr(withIndex(func(s *SegmentInfo) { s.DataRefs-- }))},
		{name: "side refs disagree with index", seg: v, idx: ptr(withIndex(func(s *SegmentInfo) { s.SideRefs++ }))},
		{name: "columns longer than payload", enc: cat(
			uv(v.refs, v.data, v.side, uint64(len(v.ops)), uint64(len(v.procs)), uint64(len(v.addrs)+1), uint64(len(v.sideCol))),
			v.ops, v.procs, v.addrs, v.sideCol)},
		{name: "columns shorter than payload", enc: cat(v.encode(), []byte{0})},
		{name: "column lengths wrap int64", enc: cat(
			uv(v.refs, v.data, v.side, uint64(len(v.ops)), 1<<63, 1<<63+uint64(len(v.procs)+len(v.addrs)), uint64(len(v.sideCol))),
			v.ops, v.procs, v.addrs, v.sideCol)},
		{name: "more data records than address bytes", seg: with(func(s *rawSegment) {
			s.refs, s.data, s.ops, s.procs, s.addrs = 10, 9, []byte{0, 0}, uv(0, 9), uv(zigzag(8))
		})},
		{name: "ops column length", seg: with(func(s *rawSegment) { s.ops = []byte{0b10, 0} })},
		{name: "side gap past segment end", seg: with(func(s *rawSegment) {
			s.sideCol = cat(uv(3), []byte{byte(trace.Acquire)}, uv(1, 1000))
		})},
		{name: "side gap wraps negative", seg: with(func(s *rawSegment) {
			s.sideCol = cat(uv(math.MaxUint64), []byte{byte(trace.Acquire)}, uv(1, 1000))
		})},
		{name: "truncated side record", seg: with(func(s *rawSegment) { s.sideCol = uv(1) })},
		{name: "side kind is a data kind", seg: with(func(s *rawSegment) {
			s.sideCol = cat(uv(1), []byte{byte(trace.Store)}, uv(1, 1000))
		})},
		{name: "side kind undefined", seg: with(func(s *rawSegment) {
			s.sideCol = cat(uv(1), []byte{7}, uv(1, 1000))
		})},
		{name: "side proc out of range", seg: with(func(s *rawSegment) {
			s.sideCol = cat(uv(1), []byte{byte(trace.Release)}, uv(2, 1000))
		})},
		{name: "data proc out of range", seg: with(func(s *rawSegment) { s.procs = uv(0, 1, 2, 1) })},
		{name: "zero-length proc run", seg: with(func(s *rawSegment) { s.procs = uv(0, 0, 1, 2) })},
		{name: "proc run past data records", seg: with(func(s *rawSegment) { s.procs = uv(0, 3) })},
		{name: "more data positions than data records", seg: rawSegment{
			refs: 3, data: 1, side: 1,
			ops: []byte{0}, procs: uv(0, 1), addrs: uv(zigzag(8)),
			sideCol: cat(uv(1), []byte{byte(trace.Phase)}),
		}},
		{name: "fewer data positions than data records", seg: rawSegment{
			refs: 2, data: 2, side: 1,
			ops: []byte{0}, procs: uv(0, 2), addrs: uv(zigzag(8), 0),
			sideCol: cat(uv(1), []byte{byte(trace.Phase)}),
		}},
		{name: "unplaced side records", seg: rawSegment{
			refs: 2, data: 2, side: 1,
			ops: []byte{0}, procs: uv(0, 2), addrs: uv(zigzag(8), 0),
			sideCol: cat(uv(1<<63), []byte{byte(trace.Phase)}),
		}},
		{name: "trailing proc column bytes", seg: with(func(s *rawSegment) { s.procs = cat(v.procs, uv(0)) })},
		{name: "trailing addr column bytes", seg: with(func(s *rawSegment) { s.addrs = cat(v.addrs, uv(0)) })},
		{name: "trailing side column bytes", seg: with(func(s *rawSegment) { s.sideCol = cat(v.sideCol, uv(0)) })},
		{name: "malformed header varint", enc: []byte{0x80}},
		{name: "overlong header varint", enc: cat([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, v.encode()[1:])},
		{name: "malformed proc varint", seg: with(func(s *rawSegment) { s.procs = cat(uv(0, 1), []byte{0x80}) })},
		{name: "malformed run-length varint", seg: with(func(s *rawSegment) { s.procs = cat(uv(0, 1, 1), []byte{0x80}) })},
		{name: "malformed addr varint", seg: with(func(s *rawSegment) { s.addrs = cat(uv(zigzag(8)), []byte{0x80}) })},
		{name: "malformed side gap varint", seg: with(func(s *rawSegment) { s.sideCol = []byte{0x80} })},
		{name: "malformed side proc varint", seg: with(func(s *rawSegment) {
			s.sideCol = cat(uv(1), []byte{byte(trace.Acquire), 0x80})
		})},
		{name: "malformed side addr varint", seg: with(func(s *rawSegment) {
			s.sideCol = cat(uv(1), []byte{byte(trace.Acquire)}, uv(1), []byte{0x80})
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc, idx := tc.enc, tc.seg.info()
			if enc == nil {
				enc = tc.seg.encode()
			} else {
				idx = v.info()
			}
			if tc.idx != nil {
				idx = *tc.idx
			}
			for _, d := range decoders {
				refs, err := decodeChecked(t, d.dec, enc, idx)
				if err == nil {
					t.Fatalf("%s: decoded %d refs from a malformed payload", d.name, len(refs))
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: error %v does not wrap ErrCorrupt", d.name, err)
				}
			}
		})
	}
}

func ptr[T any](v T) *T { return &v }

// fuzzProcs is the processor count FuzzDecodeSegment decodes with; its
// seeds are packs of randomTrace over that many processors.
const fuzzProcs = 4

// FuzzDecodeSegment checks decodeSegment against decodeSegmentRef, the
// decoder it replaced, on arbitrary payload bytes: both must fail with an
// error wrapping ErrCorrupt, or both must return the same references. The
// index entry comes from the payload's own count header, so most inputs
// get past the first check. The committed seeds under
// testdata/fuzz/FuzzDecodeSegment are segment payloads of randomTrace
// packs.
func FuzzDecodeSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var s SegmentInfo
		off := 0
		for _, dst := range []*uint64{&s.Refs, &s.DataRefs, &s.SideRefs} {
			v, n, err := uvarint(payload, off)
			if err != nil {
				break
			}
			*dst, off = v, off+n
		}
		got, err := decodeSegment(payload, s, fuzzProcs, make([]uint64, fuzzProcs), nil)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("kernel error %v does not wrap ErrCorrupt", err)
		}
		if s.Refs > uint64(len(payload)) {
			// Every reference takes at least one payload byte. The
			// reference decoder would size its buffer from the claim
			// before failing, so only the kernel runs.
			if err == nil {
				t.Fatalf("kernel decoded %d refs from a %d-byte payload", len(got), len(payload))
			}
			return
		}
		want, wantErr := decodeSegmentRef(payload, s, fuzzProcs, make([]uint64, fuzzProcs), nil)
		if wantErr != nil && !errors.Is(wantErr, ErrCorrupt) {
			t.Fatalf("reference error %v does not wrap ErrCorrupt", wantErr)
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("kernel error %v, reference error %v", err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("kernel decoded %d refs, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ref %d: kernel %v, reference %v", i, got[i], want[i])
			}
		}
	})
}
