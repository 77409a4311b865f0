package tracestore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/trace"
)

// File is an opened trace store: the parsed header and TOC plus a handle
// for positioned reads. Segment payloads are fetched on demand through
// Cursors; a File itself holds O(TOC) memory. All reads go through
// io.ReaderAt, so any number of Cursors and Readers can share one File
// concurrently.
type File struct {
	r    io.ReaderAt
	size int64

	procs   int
	segRefs int   // writer's target refs per segment
	hdrLen  int64 // header bytes, where the first segment starts
	toc     []SegmentInfo

	refs, dataRefs uint64
	maxSegRefs     uint64
	maxSegPayload  int64
	tocDigest      string

	owned *os.File // set by Open; closed by Close
}

// Open opens the trace store at path. The returned File owns the OS file:
// Close releases it.
func Open(path string) (*File, error) {
	osf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := osf.Stat()
	if err != nil {
		osf.Close()
		return nil, err
	}
	f, err := NewFile(osf, st.Size())
	if err != nil {
		osf.Close()
		return nil, fmt.Errorf("tracestore: open %s: %w", path, err)
	}
	f.owned = osf
	return f, nil
}

// NewFile parses a trace store from any positioned reader (an os.File, a
// bytes.Reader over an in-memory pack, ...). It reads only the header, the
// trailer and the TOC; Close is a no-op for files opened this way.
func NewFile(r io.ReaderAt, size int64) (*File, error) {
	f := &File{r: r, size: size}
	if err := f.readHeader(); err != nil {
		return nil, err
	}
	if err := f.readTOC(); err != nil {
		return nil, err
	}
	return f, nil
}

// Close releases the underlying OS file when the File came from Open, and
// is a no-op otherwise.
func (f *File) Close() error {
	if f.owned == nil {
		return nil
	}
	err := f.owned.Close()
	f.owned = nil
	return err
}

// Procs returns the trace's processor count.
func (f *File) Procs() int { return f.procs }

// SegmentTargetRefs returns the writer's per-segment reference target.
func (f *File) SegmentTargetRefs() int { return f.segRefs }

// Segments returns the TOC. The slice is shared; callers must not mutate.
func (f *File) Segments() []SegmentInfo { return f.toc }

// NumRefs returns the total reference count.
func (f *File) NumRefs() uint64 { return f.refs }

// DataRefs returns the total load/store reference count.
func (f *File) DataRefs() uint64 { return f.dataRefs }

// Size returns the file length in bytes.
func (f *File) Size() int64 { return f.size }

// TOCDigest returns the hex SHA-256 of the raw TOC bytes — the same digest
// PackStats reports, covering every segment's CRC and index, so a manifest
// comparing digests verifies the whole file's identity without reading the
// payloads.
func (f *File) TOCDigest() string { return f.tocDigest }

func (f *File) readHeader() error {
	// Longest possible header: magic + version + two max uvarints.
	var buf [4 + 1 + 2*binary.MaxVarintLen64]byte
	n, err := f.r.ReadAt(buf[:], 0)
	if err != nil && err != io.EOF {
		return err
	}
	b := buf[:n]
	if len(b) < 6 || [4]byte(b[:4]) != headerMagic {
		return corruptf("bad header magic")
	}
	if b[4] != FormatVersion {
		return corruptf("unsupported format version %d (want %d)", b[4], FormatVersion)
	}
	off := 5
	procs, n2, err := uvarint(b, off)
	if err != nil {
		return err
	}
	off += n2
	segRefs, n3, err := uvarint(b, off)
	if err != nil {
		return err
	}
	if procs == 0 || procs > 1<<16 {
		return corruptf("implausible processor count %d", procs)
	}
	if segRefs == 0 || segRefs > maxSegmentRefs {
		return corruptf("implausible segment target %d", segRefs)
	}
	f.procs = int(procs)
	f.segRefs = int(segRefs)
	f.hdrLen = int64(off + n3)
	return nil
}

// minFooterLen is the shortest footer the writer puts after a payload:
// five one-byte index uvarints, one byte per processor and the CRC.
func (f *File) minFooterLen() int64 { return 5 + int64(f.procs) + 4 }

func (f *File) readTOC() error {
	if f.size < trailerLen {
		return corruptf("file shorter than trailer (%d bytes)", f.size)
	}
	var tr [trailerLen]byte
	if _, err := f.r.ReadAt(tr[:], f.size-trailerLen); err != nil {
		return corruptf("short trailer read: %v", err)
	}
	if [4]byte(tr[12:16]) != trailerMagic {
		return corruptf("bad trailer magic (truncated file?)")
	}
	tocOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	tocLen := int64(binary.LittleEndian.Uint32(tr[8:12]))
	if tocLen > maxTOCBytes || tocOff < f.hdrLen || tocOff+tocLen != f.size-trailerLen {
		return corruptf("trailer TOC bounds [%d,+%d) disagree with file size %d", tocOff, tocLen, f.size)
	}
	if tocLen < 5 { // at least a segment count byte and the CRC
		return corruptf("TOC too short (%d bytes)", tocLen)
	}
	raw := make([]byte, tocLen)
	if _, err := f.r.ReadAt(raw, tocOff); err != nil {
		return corruptf("short TOC read: %v", err)
	}
	body, sum := raw[:tocLen-4], binary.LittleEndian.Uint32(raw[tocLen-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return corruptf("TOC checksum mismatch")
	}
	digest := sha256.Sum256(raw)
	f.tocDigest = hex.EncodeToString(digest[:])

	off := 0
	count, n, err := uvarint(body, off)
	if err != nil {
		return err
	}
	off += n
	// An entry is at least seven one-byte uvarints, one byte per processor
	// and a four-byte CRC, and a segment at least a count header and a
	// footer, so a count that either the TOC or the bytes before it cannot
	// hold fails before it sizes toc.
	minEntry := uint64(7 + f.procs + 4)
	minSegment := uint64(minPayloadLen + f.minFooterLen())
	if count > uint64(len(body)-off)/minEntry || count > uint64(tocOff-f.hdrLen)/minSegment {
		return corruptf("implausible segment count %d for a %d-byte TOC at offset %d", count, tocLen, tocOff)
	}
	toc := make([]SegmentInfo, 0, count)
	prevEnd := f.hdrLen // where the next segment may start
	for i := uint64(0); i < count; i++ {
		s, n, err := parseTOCEntry(body, off, f.procs)
		if err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
		off += n
		if err := f.validateSegment(s, prevEnd, tocOff); err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
		prevEnd = s.Offset + s.PayloadLen + f.minFooterLen()
		toc = append(toc, s)
		f.refs += s.Refs
		f.dataRefs += s.DataRefs
		if s.Refs > f.maxSegRefs {
			f.maxSegRefs = s.Refs
		}
		if s.PayloadLen > f.maxSegPayload {
			f.maxSegPayload = s.PayloadLen
		}
	}
	if off != len(body) {
		return corruptf("%d trailing TOC bytes", len(body)-off)
	}
	f.toc = toc
	return nil
}

// parseTOCEntry decodes one TOC entry at off and returns it with the
// number of bytes consumed. The per-processor counts are parsed, so a
// malformed one is ErrCorrupt, but not kept: nothing on the read side uses
// them, and one byte of TOC per processor would otherwise cost eight of
// heap.
func parseTOCEntry(b []byte, off, procs int) (SegmentInfo, int, error) {
	start := off
	var s SegmentInfo
	fields := []*uint64{new(uint64), new(uint64), &s.Refs, &s.DataRefs, &s.SideRefs}
	for _, dst := range fields {
		v, n, err := uvarint(b, off)
		if err != nil {
			return s, 0, err
		}
		*dst = v
		off += n
	}
	s.Offset = int64(*fields[0])
	s.PayloadLen = int64(*fields[1])
	minA, n, err := uvarint(b, off)
	if err != nil {
		return s, 0, err
	}
	off += n
	maxA, n, err := uvarint(b, off)
	if err != nil {
		return s, 0, err
	}
	off += n
	s.MinAddr, s.MaxAddr = addrOf(minA), addrOf(maxA)
	for p := 0; p < procs; p++ {
		_, n, err := uvarint(b, off)
		if err != nil {
			return s, 0, err
		}
		off += n
	}
	if off+4 > len(b) {
		return s, 0, corruptf("truncated TOC entry CRC")
	}
	s.CRC = binary.LittleEndian.Uint32(b[off:])
	off += 4
	return s, off - start, nil
}

// validateSegment sanity-checks one TOC entry against the file geometry
// before any payload bytes are trusted: the payload holds at least its
// count header, starts past the previous segment's footer, and leaves room
// for its own footer before the TOC at tocOff.
func (f *File) validateSegment(s SegmentInfo, prevEnd, tocOff int64) error {
	if s.Refs == 0 {
		return corruptf("empty segment")
	}
	if s.Refs > maxSegmentRefs {
		return corruptf("segment claims %d refs (max %d)", s.Refs, maxSegmentRefs)
	}
	if s.DataRefs+s.SideRefs != s.Refs {
		return corruptf("ref counts disagree (%d data + %d side != %d)", s.DataRefs, s.SideRefs, s.Refs)
	}
	if s.Offset < prevEnd || s.Offset > tocOff {
		return corruptf("segment offset %d outside [%d,%d]", s.Offset, prevEnd, tocOff)
	}
	if s.PayloadLen < minPayloadLen || s.PayloadLen > tocOff-f.minFooterLen()-s.Offset {
		return corruptf("payload [%d,+%d) and its footer do not fit before the TOC at %d", s.Offset, s.PayloadLen, tocOff)
	}
	if s.PayloadLen > (int64(s.Refs)+8)*maxRecordBytes {
		return corruptf("payload length %d implausible for %d refs", s.PayloadLen, s.Refs)
	}
	if s.MinAddr > s.MaxAddr {
		return corruptf("address bounds inverted [%d,%d]", s.MinAddr, s.MaxAddr)
	}
	return nil
}

// Cursor decodes segments from a File with reusable buffers: after the
// first Read, decoding a segment of the same or smaller size performs zero
// heap allocations. A Cursor is not safe for concurrent use; create one
// per goroutine (they share the File's io.ReaderAt, which is).
type Cursor struct {
	f        *File
	enc      []byte   // raw payload scratch
	lastAddr []uint64 // per-proc delta state, reset every segment
}

// Cursor returns a new decode cursor.
func (f *File) Cursor() *Cursor {
	return &Cursor{f: f, lastAddr: make([]uint64, f.procs)}
}

// Read decodes segment i, appending its references to dst[:0] and
// returning the extended slice. dst is grown only when its capacity is
// insufficient; passing a slice with capacity ≥ MaxSegmentRefs of the file
// makes Read allocation-free. The payload CRC is verified before any
// record is decoded.
func (c *Cursor) Read(i int, dst []trace.Ref) ([]trace.Ref, error) {
	f := c.f
	if i < 0 || i >= len(f.toc) {
		return dst[:0], fmt.Errorf("tracestore: segment index %d out of range [0,%d)", i, len(f.toc))
	}
	s := f.toc[i]
	if int64(cap(c.enc)) < s.PayloadLen {
		c.enc = make([]byte, s.PayloadLen)
	}
	enc := c.enc[:s.PayloadLen]
	if _, err := f.r.ReadAt(enc, s.Offset); err != nil {
		return dst[:0], corruptf("segment %d: short payload read: %v", i, err)
	}
	if got := crc32.ChecksumIEEE(enc); got != s.CRC {
		return dst[:0], corruptf("segment %d: payload checksum mismatch (got %08x want %08x)", i, got, s.CRC)
	}
	out, err := decodeSegment(enc, s, f.procs, c.lastAddr, dst)
	if err != nil {
		return dst[:0], fmt.Errorf("segment %d: %w", i, err)
	}
	return out, nil
}

// decodeSegment decodes one CRC-verified payload into dst[:0]. lastAddr is
// the caller's per-proc scratch (len procs); it is reset here, preserving
// the writer's per-segment delta restart.
//
// Data references decode a run at a time: the stretch between two side
// positions, cut further where a processor run of the proc column ends.
// Inside a run the processor is fixed, so the inner loop keeps its last
// address in a local, makes no per-position side check, and decodes the
// 1-, 2- and 3-byte address uvarints inline. Each structural check runs
// once per side record, stretch or run, before the loop that relies on it.
func decodeSegment(enc []byte, s SegmentInfo, procs int, lastAddr []uint64, dst []trace.Ref) ([]trace.Ref, error) {
	off := 0
	var hdr [7]uint64 // nRefs nData nSide opsLen procsLen addrLen sideLen
	for j := range hdr {
		v, n, err := uvarint(enc, off)
		if err != nil {
			return nil, err
		}
		hdr[j] = v
		off += n
	}
	nRefs, nData, nSide := hdr[0], hdr[1], hdr[2]
	if nRefs != s.Refs || nData != s.DataRefs || nSide != s.SideRefs {
		return nil, corruptf("payload counts disagree with index")
	}
	colEnd := uint64(off)
	for _, l := range hdr[3:] {
		if l > uint64(len(enc)) {
			return nil, corruptf("column length %d exceeds payload %d", l, len(enc))
		}
		colEnd += l
	}
	if colEnd != uint64(len(enc)) {
		return nil, corruptf("column lengths sum to %d, payload is %d", colEnd, len(enc))
	}
	if wantOps := (nData + 7) / 8; hdr[3] != wantOps {
		return nil, corruptf("ops column is %d bytes, want %d", hdr[3], wantOps)
	}
	// A data record takes at least one address byte and a side record at
	// least a gap and a kind byte, so the counts cannot size dst beyond
	// the payload they came with.
	if nData > hdr[5] || nSide > hdr[6]/2 || nRefs != nData+nSide {
		return nil, corruptf("counts %d = %d data + %d side do not fit the columns", nRefs, nData, nSide)
	}
	cols := enc[off:]
	ops, cols := cols[:hdr[3]], cols[hdr[3]:]
	procCol, cols := cols[:hdr[4]], cols[hdr[4]:]
	addrCol, sideCol := cols[:hdr[5]], cols[hdr[5]:]

	n := int(nRefs)
	if cap(dst) < n {
		dst = make([]trace.Ref, 0, n)
	}
	dst = dst[:n]
	clear(lastAddr)

	var (
		pos, pOff, aOff, sOff int
		di                    uint64 // data records decoded so far
		runProc, runLeft      uint64 // the open proc-column run
	)
	for sideLeft := nSide; ; sideLeft-- {
		// [pos, next) holds data records only: next is the next side
		// position, or the segment end once every side record is placed.
		next := n
		if sideLeft > 0 {
			gap, k, err := uvarint(sideCol, sOff)
			if err != nil {
				return nil, err
			}
			sOff += k
			if gap >= uint64(n-pos) {
				return nil, corruptf("side gap %d at position %d passes segment end %d", gap, pos, n)
			}
			next = pos + int(gap)
		}
		if uint64(next-pos) > nData-di {
			return nil, corruptf("more data positions than data records")
		}
		for pos < next {
			if runLeft == 0 {
				p, k, err := uvarint(procCol, pOff)
				if err != nil {
					return nil, err
				}
				pOff += k
				if p >= uint64(procs) {
					return nil, corruptf("data proc %d out of range [0,%d)", p, procs)
				}
				l, k, err := uvarint(procCol, pOff)
				if err != nil {
					return nil, err
				}
				pOff += k
				if l == 0 || l > nData-di {
					return nil, corruptf("proc run of %d at data record %d, segment has %d", l, di, nData)
				}
				runProc, runLeft = p, l
			}
			m := next - pos
			if uint64(m) > runLeft {
				m = int(runLeft)
			}
			runLeft -= uint64(m)
			last, k, ok := decodeRun(dst[pos:pos+m], uint16(runProc), lastAddr[runProc], ops, di, addrCol, aOff)
			if !ok {
				return nil, corruptf("malformed varint at byte %d", k)
			}
			lastAddr[runProc], aOff, di = last, k, di+uint64(m)
			pos += m
		}
		if sideLeft == 0 {
			break
		}
		if sOff >= len(sideCol) {
			return nil, corruptf("truncated side record at position %d", pos)
		}
		kind := trace.Kind(sideCol[sOff])
		sOff++
		r := trace.Ref{Kind: kind}
		switch kind {
		case trace.Acquire, trace.Release:
			p, k, err := uvarint(sideCol, sOff)
			if err != nil {
				return nil, err
			}
			sOff += k
			if p >= uint64(procs) {
				return nil, corruptf("side proc %d out of range [0,%d)", p, procs)
			}
			a, k, err := uvarint(sideCol, sOff)
			if err != nil {
				return nil, err
			}
			sOff += k
			r.Proc = uint16(p)
			r.Addr = addrOf(a)
		case trace.Phase:
			// no operands
		default:
			return nil, corruptf("invalid side record kind %d", kind)
		}
		dst[pos] = r
		pos++
	}
	if pOff != len(procCol) || aOff != len(addrCol) || sOff != len(sideCol) {
		return nil, corruptf("trailing column bytes after decode")
	}
	return dst, nil
}

// decodeRun decodes one processor's run of data references into out: the
// addresses from the zigzag deltas at addrs[off:], added to last, and the
// kinds from the ops bits from data index di on. It returns the address
// column offset past the run and the processor's last address, or, with
// ok false, the offset of a malformed varint. It is its own function so
// the loop keeps its state in registers.
func decodeRun(out []trace.Ref, proc uint16, last uint64, ops []byte, di uint64, addrs []byte, off int) (uint64, int, bool) {
	for j := range out {
		var d uint64
		if a := addrs[off:]; len(a) > 0 && a[0] < 0x80 {
			d = uint64(a[0])
			off++
		} else if len(a) > 1 && a[1] < 0x80 {
			d = uint64(a[0]&0x7f) | uint64(a[1])<<7
			off += 2
		} else if len(a) > 2 && a[2] < 0x80 {
			d = uint64(a[0]&0x7f) | uint64(a[1]&0x7f)<<7 | uint64(a[2])<<14
			off += 3
		} else {
			v, k := binary.Uvarint(a)
			if k <= 0 {
				return last, off, false
			}
			d = v
			off += k
		}
		last += uint64(unzigzag(d))
		// The ops bit is the kind: Load is 0, Store is 1.
		out[j] = trace.Ref{Addr: addrOf(last), Proc: proc, Kind: trace.Kind(ops[di>>3] >> (di & 7) & 1)}
		di++
	}
	return last, off, true
}

// MaxSegmentRefs returns the largest per-segment reference count in the
// file — the capacity a reusable decode buffer needs for alloc-free reads.
func (f *File) MaxSegmentRefs() int { return int(f.maxSegRefs) }
