package tracestore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

// randomTrace builds a trace mixing data, sync and phase references with
// clustered addresses (realistic for the delta encoder) plus occasional
// far jumps (worst case for it).
func randomTrace(rng *rand.Rand, procs, n int) *trace.Trace {
	tr := trace.New(procs)
	base := make([]uint64, procs)
	for i := 0; i < n; i++ {
		p := rng.Intn(procs)
		switch rng.Intn(12) {
		case 0:
			tr.Append(trace.A(p, mem.Addr(1000+rng.Intn(4))))
		case 1:
			tr.Append(trace.R(p, mem.Addr(1000+rng.Intn(4))))
		case 2:
			tr.Append(trace.P())
		case 3:
			base[p] = rng.Uint64() >> uint(rng.Intn(40)) // far jump
			fallthrough
		default:
			addr := base[p] + uint64(rng.Intn(256))
			if rng.Intn(2) == 0 {
				tr.Append(trace.S(p, mem.Addr(addr)))
			} else {
				tr.Append(trace.L(p, mem.Addr(addr)))
			}
		}
	}
	return tr
}

// packBytes packs tr into memory and returns the encoded file.
func packBytes(t *testing.T, tr *trace.Trace, opt WriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Pack(&buf, tr.Reader(), opt); err != nil {
		t.Fatalf("Pack: %v", err)
	}
	return buf.Bytes()
}

// reopen parses a packed byte image.
func reopen(t *testing.T, enc []byte) *File {
	t.Helper()
	f, err := NewFile(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	return f
}

// drain collects a Reader's stream, failing the test on any error.
func drain(t *testing.T, r trace.Reader) []trace.Ref {
	t.Helper()
	tr, err := trace.Collect(r)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return tr.Refs
}

func TestRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		procs, n, seg int
	}{
		{1, 1, DefaultSegmentRefs},
		{4, 3000, 64},   // many segments
		{4, 3000, 1},    // 1-ref segments
		{8, 100, 7},     // odd boundary
		{16, 5000, 500}, // multi-proc
		{3, 65, 65},     // exactly one full segment
		{3, 66, 65},     // one full + 1-ref tail
	} {
		t.Run(fmt.Sprintf("p%d_n%d_seg%d", tc.procs, tc.n, tc.seg), func(t *testing.T) {
			tr := randomTrace(rng, tc.procs, tc.n)
			enc := packBytes(t, tr, WriterOptions{SegmentRefs: tc.seg})
			f := reopen(t, enc)
			if f.Procs() != tc.procs {
				t.Errorf("Procs = %d, want %d", f.Procs(), tc.procs)
			}
			if f.NumRefs() != uint64(tc.n) {
				t.Errorf("NumRefs = %d, want %d", f.NumRefs(), tc.n)
			}
			if f.DataRefs() != tr.DataRefs() {
				t.Errorf("DataRefs = %d, want %d", f.DataRefs(), tr.DataRefs())
			}
			check := func(how string, got []trace.Ref) {
				t.Helper()
				if len(got) != len(tr.Refs) {
					t.Fatalf("%s: decoded %d refs, want %d", how, len(got), len(tr.Refs))
				}
				for i := range got {
					if got[i] != tr.Refs[i] {
						t.Fatalf("%s: ref %d: got %v, want %v", how, i, got[i], tr.Refs[i])
					}
				}
			}
			check("Collect", drain(t, f.Reader()))
			check("Next", drainNext(t, f.Reader()))
			for _, size := range []int{1, 7, 512, 8192} {
				check(fmt.Sprintf("NextBatch(%d)", size), drainBatch(t, f.Reader(), size))
			}
		})
	}
}

// drainNext drains r one reference at a time and closes it.
func drainNext(t *testing.T, r *Reader) []trace.Ref {
	t.Helper()
	defer r.Close()
	var out []trace.Ref
	for {
		ref, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, ref)
	}
}

// drainBatch drains r through NextBatch with size-reference batches, so
// batches end inside and across segments, and closes it.
func drainBatch(t *testing.T, r *Reader, size int) []trace.Ref {
	t.Helper()
	defer r.Close()
	buf := make([]trace.Ref, size)
	var out []trace.Ref
	for {
		n, err := r.NextBatch(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("NextBatch(%d): %v", size, err)
		}
	}
}

// TestOpenRejectsBadHeader: a header Open cannot trust fails with
// ErrCorrupt from the check that guards it, before the TOC is read.
func TestOpenRejectsBadHeader(t *testing.T) {
	valid := packBytes(t, randomTrace(rand.New(rand.NewSource(15)), 4, 100), WriterOptions{SegmentRefs: 64})
	if got := string(valid[:7]); got != Magic+"\x01\x04\x40" {
		t.Fatalf("header %q, want magic, version 1, 4 processors, 64-ref segments", got)
	}
	patch := func(at int, b ...byte) []byte {
		out := bytes.Clone(valid)
		copy(out[at:], b)
		return out
	}
	manyProcs := append([]byte(Magic), FormatVersion)
	manyProcs = binary.AppendUvarint(manyProcs, 1<<16+1)
	manyProcs = append(manyProcs, valid[6:]...)
	for _, tc := range []struct {
		name string
		enc  []byte
		want string
	}{
		{"empty", nil, "bad header magic"},
		{"stream codec magic", []byte("UMTR\x02\x04\x00"), "bad header magic"},
		{"bad magic", patch(0, 'N', 'O', 'P', 'E'), "bad header magic"},
		{"bad version", patch(4, 9), "unsupported format version 9"},
		{"zero processors", patch(5, 0), "implausible processor count 0"},
		{"65537 processors", manyProcs, "implausible processor count 65537"},
		{"zero segment target", patch(6, 0), "implausible segment target 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewFile(bytes.NewReader(tc.enc), int64(len(tc.enc)))
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewFile = %v, want ErrCorrupt from %q", err, tc.want)
			}
		})
	}
}

// TestRoundtripSyncAtBoundaries pins the segment-boundary edge cases the
// position-gap side encoding must survive: sync/phase refs as the first
// ref, the last ref, and on both sides of every segment boundary.
func TestRoundtripSyncAtBoundaries(t *testing.T) {
	tr := trace.New(2)
	// Segment size 4: positions 0..3 | 4..7 | 8..11 | 12.
	tr.Append(
		trace.A(0, 1000), trace.L(0, 8), trace.L(1, 16), trace.R(0, 1000), // sync first + last in segment
		trace.P(), trace.A(1, 1004), trace.S(1, 24), trace.L(0, 8), // sync pair straddles boundary
		trace.L(0, 16), trace.L(0, 24), trace.L(1, 8), trace.P(), // phase last in segment
		trace.R(1, 1004), // 1-ref tail segment, side-only
	)
	enc := packBytes(t, tr, WriterOptions{SegmentRefs: 4})
	f := reopen(t, enc)
	if len(f.Segments()) != 4 {
		t.Fatalf("segments = %d, want 4", len(f.Segments()))
	}
	if s := f.Segments()[3]; s.DataRefs != 0 || s.SideRefs != 1 {
		t.Errorf("tail segment counts = %d data %d side, want 0/1", s.DataRefs, s.SideRefs)
	}
	got := drain(t, f.Reader())
	for i := range got {
		if got[i] != tr.Refs[i] {
			t.Fatalf("ref %d: got %v, want %v", i, got[i], tr.Refs[i])
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	enc := packBytes(t, trace.New(4), WriterOptions{})
	f := reopen(t, enc)
	if n := len(f.Segments()); n != 0 {
		t.Fatalf("segments = %d, want 0", n)
	}
	if got := drain(t, f.Reader()); len(got) != 0 {
		t.Fatalf("decoded %d refs from empty trace", len(got))
	}
	if _, err := f.Reader().Next(); err != io.EOF {
		t.Fatalf("Next on empty = %v, want io.EOF", err)
	}
}

// TestDeltaRestartAcrossSegments pins the format property DESIGN.md argues
// for: each segment decodes with no state from its predecessors, so a
// reader starting mid-file sees exactly the segment's refs.
func TestDeltaRestartAcrossSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := randomTrace(rng, 4, 1000)
	f := reopen(t, packBytes(t, tr, WriterOptions{SegmentRefs: 100}))
	// Decode only segment 5 via a cursor; compare to the slice of the
	// original at the TOC-claimed position.
	var skip uint64
	for _, s := range f.Segments()[:5] {
		skip += s.Refs
	}
	refs, err := f.Cursor().Read(5, nil)
	if err != nil {
		t.Fatalf("Read(5): %v", err)
	}
	for i, r := range refs {
		if want := tr.Refs[int(skip)+i]; r != want {
			t.Fatalf("segment 5 ref %d: got %v, want %v", i, r, want)
		}
	}
}

// footerPerProc parses the per-processor counts out of the footer that
// follows segment s's payload in the packed bytes enc: the counts Open
// validates but does not keep.
func footerPerProc(t *testing.T, enc []byte, s SegmentInfo, procs int) []uint64 {
	t.Helper()
	off := int(s.Offset + s.PayloadLen)
	for i := 0; i < 5; i++ { // refs, data refs, side refs, min and max address
		_, n, err := uvarint(enc, off)
		if err != nil {
			t.Fatalf("footer at %d: %v", off, err)
		}
		off += n
	}
	perProc := make([]uint64, procs)
	for p := range perProc {
		v, n, err := uvarint(enc, off)
		if err != nil {
			t.Fatalf("footer at %d: %v", off, err)
		}
		perProc[p] = v
		off += n
	}
	return perProc
}

func TestSegmentIndexStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTrace(rng, 4, 2000)
	enc := packBytes(t, tr, WriterOptions{SegmentRefs: 128})
	f := reopen(t, enc)
	pos := 0
	for si, s := range f.Segments() {
		window := tr.Refs[pos : pos+int(s.Refs)]
		pos += int(s.Refs)
		var data, side uint64
		perProc := make([]uint64, 4)
		var minA, maxA mem.Addr
		for _, r := range window {
			if r.Kind.IsData() {
				if data == 0 || r.Addr < minA {
					minA = r.Addr
				}
				if data == 0 || r.Addr > maxA {
					maxA = r.Addr
				}
				data++
			} else {
				side++
			}
			if r.Kind != trace.Phase {
				perProc[r.Proc]++
			}
		}
		if s.DataRefs != data || s.SideRefs != side {
			t.Fatalf("segment %d: counts %d/%d, want %d/%d", si, s.DataRefs, s.SideRefs, data, side)
		}
		if s.MinAddr != minA || s.MaxAddr != maxA {
			t.Fatalf("segment %d: addr bounds [%d,%d], want [%d,%d]", si, s.MinAddr, s.MaxAddr, minA, maxA)
		}
		packed := footerPerProc(t, enc, s, 4)
		for p, n := range perProc {
			if packed[p] != n {
				t.Fatalf("segment %d: perProc[%d] = %d, want %d", si, p, packed[p], n)
			}
		}
	}
}

// failAfterWriter fails every Write once n bytes have passed.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	if w.n == 0 {
		return len(p), w.err
	}
	return len(p), nil
}

func TestWriterStickyError(t *testing.T) {
	werr := errors.New("disk full")
	w, err := NewWriter(&failAfterWriter{n: 200, err: werr}, 2, WriterOptions{SegmentRefs: 4})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 0; i < 1000; i++ {
		w.Ref(trace.L(0, mem.Addr(i)))
	}
	if err := w.Close(); !errors.Is(err, werr) {
		t.Fatalf("Close = %v, want %v", err, werr)
	}
	if err := w.Close(); !errors.Is(err, werr) {
		t.Fatalf("second Close = %v, want sticky %v", err, werr)
	}
}

func TestWriterRejectsBadRefs(t *testing.T) {
	for _, bad := range []trace.Ref{
		{Kind: trace.Load, Proc: 7},
		{Kind: trace.Acquire, Proc: 7},
		{Kind: trace.Kind(9)},
	} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, 2, WriterOptions{})
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		w.Ref(bad)
		if err := w.Close(); err == nil {
			t.Errorf("Close accepted invalid ref %+v", bad)
		}
	}
}

func TestPackFile(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := randomTrace(rng, 4, 500)
	path := filepath.Join(t.TempDir(), "t.umts")
	stats, err := PackFile(path, tr.Reader(), WriterOptions{SegmentRefs: 64})
	if err != nil {
		t.Fatalf("PackFile: %v", err)
	}
	if stats.Refs != 500 {
		t.Errorf("stats.Refs = %d, want 500", stats.Refs)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if st.Size() != stats.Bytes {
		t.Errorf("file is %d bytes, stats say %d", st.Size(), stats.Bytes)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if f.TOCDigest() != stats.TOCDigest {
		t.Errorf("TOCDigest mismatch: open %s, pack %s", f.TOCDigest(), stats.TOCDigest)
	}
	got := drain(t, f.Reader())
	if len(got) != 500 {
		t.Fatalf("decoded %d refs", len(got))
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// No stray temp files from the temp+rename dance.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("dir has %d entries, want only the packed file", len(entries))
	}
}

func TestOpenReaderOwnsFile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	path := filepath.Join(t.TempDir(), "t.umts")
	if _, err := PackFile(path, randomTrace(rng, 2, 300).Reader(), WriterOptions{SegmentRefs: 32}); err != nil {
		t.Fatalf("PackFile: %v", err)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	f := r.f
	if got := drain(t, r); len(got) != 300 { // Collect closes r
		t.Fatalf("decoded %d refs", len(got))
	}
	// The reader's Close (via Collect) must have closed the OS file.
	if _, err := f.Cursor().Read(0, nil); err == nil {
		t.Error("cursor read succeeded after OpenReader close; file not closed")
	}
	if err := r.Close(); err != nil {
		t.Errorf("repeated Close = %v, want nil", err)
	}
}

// TestTruncation checks every truncated prefix of a valid file fails with
// ErrCorrupt (or an os-level short read wrapped in it) and never panics or
// silently yields a short stream.
func TestTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := randomTrace(rng, 4, 400)
	enc := packBytes(t, tr, WriterOptions{SegmentRefs: 64})
	for n := 0; n < len(enc); n++ {
		f, err := NewFile(bytes.NewReader(enc[:n]), int64(n))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncate %d: error %v does not wrap ErrCorrupt", n, err)
			}
			continue
		}
		// The TOC happened to parse (truncation inside payload bytes the
		// TOC doesn't cover is impossible — offsets are validated — so
		// this means n landed exactly at a valid TOC+trailer image, which
		// cannot happen for a strict prefix).
		_ = f
		t.Fatalf("truncate %d: open succeeded on a strict prefix", n)
	}
}

// hostileTOCFile builds a trace store of segs payload-byte segments on
// procs processors, each payload followed by gap bytes where a footer would
// be, whose TOC claims count entries and carries pad zero bytes after the
// real ones. Every TOC field but the offsets is a one-byte uvarint, so each
// per-processor count costs one byte of file.
func hostileTOCFile(procs, segs int, count uint64, pad, payload, gap int) []byte {
	b := append([]byte(Magic), FormatVersion)
	b = binary.AppendUvarint(b, uint64(procs))
	b = binary.AppendUvarint(b, 1)
	first := len(b)
	b = append(b, make([]byte, segs*(payload+gap))...)
	tocOff := len(b)
	toc := binary.AppendUvarint(nil, count)
	for i := 0; i < segs; i++ {
		toc = binary.AppendUvarint(toc, uint64(first+i*(payload+gap)))
		toc = append(toc, byte(payload), 1, 1, 0, 0, 0) // payload length, refs, data refs, side refs, min and max address
		toc = append(toc, make([]byte, procs)...)       // per-processor counts
		toc = binary.LittleEndian.AppendUint32(toc, 0)
	}
	toc = append(toc, make([]byte, pad)...)
	toc = binary.LittleEndian.AppendUint32(toc, crc32.ChecksumIEEE(toc))
	b = append(b, toc...)
	b = binary.LittleEndian.AppendUint64(b, uint64(tocOff))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(toc)))
	return append(b, trailerMagic[:]...)
}

// TestOpenBoundsHostileTOCAllocation: Open of a hostile TOC allocates at
// most limit times the file's size. One-byte per-processor counts must not
// cost eight bytes of heap each, and a segment count that the TOC or the
// bytes before it cannot hold must fail before it sizes the index: every
// segment the writer makes carries a seven-byte count header and a footer
// of at least 9 + procs bytes.
func TestOpenBoundsHostileTOCAllocation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		enc   []byte
		opens bool // whether the file passes Open's checks
		limit uint64
	}{
		{"one-byte segments on 65536 processors", hostileTOCFile(1<<16, 100, 100, 0, 1, 0), false, 2},
		{"segment count the TOC cannot hold", hostileTOCFile(4, 1, 60000, 64<<10, 1, 0), false, 2},
		{"200000 one-byte segments on one processor", hostileTOCFile(1, 200000, 200000, 0, 1, 0), false, 2},
		{"seven-byte segments 10 bytes apart on one processor", hostileTOCFile(1, 200000, 200000, 0, 7, 10), true, 3},
		{"seven-byte segments on 65536 processors", hostileTOCFile(1<<16, 10, 10, 0, 7, 9+1<<16), true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := NewFile(bytes.NewReader(tc.enc), int64(len(tc.enc)))
			runtime.ReadMemStats(&after)
			if tc.opens && err != nil {
				t.Fatalf("open: %v", err)
			}
			if !tc.opens && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open error %v, want ErrCorrupt", err)
			}
			got, limit := after.TotalAlloc-before.TotalAlloc, tc.limit*uint64(len(tc.enc))
			t.Logf("Open of a %d-byte file allocated %.2f× its size", len(tc.enc), float64(got)/float64(len(tc.enc)))
			if got > limit {
				t.Errorf("Open of a %d-byte file allocated %d bytes, %.2f× (limit %d×)",
					len(tc.enc), got, float64(got)/float64(len(tc.enc)), tc.limit)
			}
		})
	}
}

// TestBitFlips flips bytes across the file and requires one of exactly two
// outcomes: a decode error wrapping ErrCorrupt, or — for bytes outside any
// checksummed region, i.e. the redundant per-segment footers — a replay
// byte-identical to the original. Silent corruption is the failure mode.
func TestBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := randomTrace(rng, 4, 300)
	enc := packBytes(t, tr, WriterOptions{SegmentRefs: 32})
	for trial := 0; trial < 400; trial++ {
		mut := append([]byte(nil), enc...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= 1 << rng.Intn(8)
		f, err := NewFile(bytes.NewReader(mut), int64(len(mut)))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at %d: open error %v does not wrap ErrCorrupt", pos, err)
			}
			continue
		}
		got, err := trace.Collect(f.Reader())
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at %d: decode error %v does not wrap ErrCorrupt", pos, err)
			}
			continue
		}
		if len(got.Refs) != len(tr.Refs) {
			t.Fatalf("flip at %d: silent short read (%d refs, want %d)", pos, len(got.Refs), len(tr.Refs))
		}
		for i := range got.Refs {
			if got.Refs[i] != tr.Refs[i] {
				t.Fatalf("flip at %d: silent corruption at ref %d", pos, i)
			}
		}
	}
}

func TestCursorZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tr := randomTrace(rng, 4, 4000)
	f := reopen(t, packBytes(t, tr, WriterOptions{SegmentRefs: 512}))
	cur := f.Cursor()
	buf := make([]trace.Ref, 0, f.MaxSegmentRefs())
	// Warm: size the encoded-payload scratch.
	for i := range f.Segments() {
		var err error
		if buf, err = cur.Read(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := range f.Segments() {
			var err error
			if buf, err = cur.Read(i, buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state cursor pass allocates %.1f times", allocs)
	}
}

// TestReaderEarlyCloseNoLeak is the regression test for the readahead
// teardown: closing a Reader mid-replay must terminate the decode worker
// promptly, not leak it blocked on a channel.
func TestReaderEarlyCloseNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTrace(rng, 4, 5000)
	enc := packBytes(t, tr, WriterOptions{SegmentRefs: 16}) // many segments in flight
	base := runtime.NumGoroutine()
	for trial := 0; trial < 50; trial++ {
		f := reopen(t, enc)
		r := f.Reader()
		buf := make([]trace.Ref, 100)
		if _, err := r.NextBatch(buf); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitForGoroutines(t, base)
}

// TestReaderImmediateCloseNoLeak closes before any read.
func TestReaderImmediateCloseNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	enc := packBytes(t, randomTrace(rng, 2, 1000), WriterOptions{SegmentRefs: 16})
	base := runtime.NumGoroutine()
	for trial := 0; trial < 50; trial++ {
		if err := reopen(t, enc).Reader().Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitForGoroutines(t, base)
}

// TestReaderContextCancel: a canceled context surfaces ctx.Err() from
// NextBatch within one segment and terminates the worker.
func TestReaderContextCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	enc := packBytes(t, randomTrace(rng, 4, 5000), WriterOptions{SegmentRefs: 16})
	base := runtime.NumGoroutine()
	f := reopen(t, enc)
	ctx, cancel := context.WithCancel(context.Background())
	r := f.ReaderContext(ctx)
	buf := make([]trace.Ref, 64)
	if _, err := r.NextBatch(buf); err != nil {
		t.Fatal(err)
	}
	cancel()
	var err error
	for err == nil {
		_, err = r.NextBatch(buf)
	}
	if !errors.Is(err, context.Canceled) && err != io.EOF {
		t.Fatalf("NextBatch after cancel = %v, want context.Canceled (or EOF for a drained schedule)", err)
	}
	// The sticky error must persist.
	if _, err2 := r.NextBatch(buf); err2 != err {
		t.Fatalf("error not sticky: %v then %v", err, err2)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, base)
}

// waitForGoroutines polls until the goroutine count drops back to at most
// base, tolerating scheduler lag.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// FuzzTracestoreRoundtrip drives both directions: the fuzz input is
// decoded as (a) a reference program that must survive a pack/open/replay
// roundtrip bit-for-bit, and (b) a raw file image that must either open
// and replay cleanly or fail with ErrCorrupt — never panic.
func FuzzTracestoreRoundtrip(f *testing.F) {
	f.Add([]byte{}, uint8(4))
	f.Add([]byte{0x00, 0x10, 0x41, 0xff, 0x02, 0x03}, uint8(1))
	rng := rand.New(rand.NewSource(14))
	tr := randomTrace(rng, 3, 200)
	var seed bytes.Buffer
	if _, err := Pack(&seed, tr.Reader(), WriterOptions{SegmentRefs: 16}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, segHint uint8) {
		// (a) interpret data as a reference program: 3 bytes per ref.
		const procs = 4
		tr := trace.New(procs)
		for i := 0; i+2 < len(data); i += 3 {
			k, p, a := data[i]%6, int(data[i+1])%procs, mem.Addr(data[i+2])<<(data[i]%24)
			switch k {
			case 0:
				tr.Append(trace.L(p, a))
			case 1:
				tr.Append(trace.S(p, a))
			case 2:
				tr.Append(trace.A(p, a))
			case 3:
				tr.Append(trace.R(p, a))
			default:
				tr.Append(trace.P())
			}
		}
		seg := int(segHint)%64 + 1
		var buf bytes.Buffer
		if _, err := Pack(&buf, tr.Reader(), WriterOptions{SegmentRefs: seg}); err != nil {
			t.Fatalf("pack valid trace: %v", err)
		}
		fl, err := NewFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("open own pack: %v", err)
		}
		got, err := trace.Collect(fl.Reader())
		if err != nil {
			t.Fatalf("replay own pack: %v", err)
		}
		if len(got.Refs) != len(tr.Refs) {
			t.Fatalf("roundtrip lost refs: %d != %d", len(got.Refs), len(tr.Refs))
		}
		for i := range got.Refs {
			if got.Refs[i] != tr.Refs[i] {
				t.Fatalf("roundtrip ref %d: %v != %v", i, got.Refs[i], tr.Refs[i])
			}
		}

		// (b) interpret data as a hostile file image.
		fl2, err := NewFile(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("hostile open error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if _, err := trace.Collect(fl2.Reader()); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("hostile replay error %v does not wrap ErrCorrupt", err)
		}
	})
}
