package tracestore

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/mem"
	"repro/internal/trace"
)

// WriterOptions tunes a pack. The zero value selects the defaults.
type WriterOptions struct {
	// SegmentRefs is the number of references per segment (the last
	// segment may be shorter). 0 selects DefaultSegmentRefs; values are
	// clamped to [1, maxSegmentRefs].
	SegmentRefs int
}

func (o WriterOptions) segmentRefs() int {
	n := o.SegmentRefs
	if n <= 0 {
		n = DefaultSegmentRefs
	}
	if n > maxSegmentRefs {
		n = maxSegmentRefs
	}
	return n
}

// PackStats summarizes a finished pack.
type PackStats struct {
	// Refs, DataRefs and SideRefs count the packed references.
	Refs, DataRefs, SideRefs uint64
	// Segments is the number of segments written.
	Segments int
	// Bytes is the total file length.
	Bytes int64
	// TOCDigest is the hex SHA-256 of the TOC bytes: a content hash over
	// every segment's CRC and index, cheap to recompute at Open, used by
	// the regen manifest for resumable packing.
	TOCDigest string
}

// Writer encodes a reference stream into the on-disk format. It implements
// trace.Consumer and trace.BatchConsumer with a sticky error (checked via
// Err and returned by Close), so a Writer can sit directly at the end of a
// replay pump: trace.Drive(r, w) then w.Close().
//
// Close finalizes the stream (last segment, TOC, trailer) but does not
// close the underlying writer.
type Writer struct {
	w     *bufio.Writer
	off   int64
	procs int
	seg   int // target refs per segment

	// Current-segment accumulators. The column slices are reused across
	// segments; lastAddr is the per-processor delta predecessor, reset at
	// every segment boundary so segments decode independently.
	ops              []byte
	procCol, addrCol []byte
	sideCol          []byte
	nRefs, nData     int
	nSide            int
	lastAddr         []uint64
	lastSidePos      int
	minAddr, maxAddr uint64
	perProc          []uint64
	runProc          uint64 // processor of the open proc-column run
	runLen           uint64 // its length so far (0 = no open run)

	toc    []byte // the TOC entries so far, encoded
	stats  PackStats
	err    error
	closed bool
}

// NewWriter writes the file header for a trace of procs processors and
// returns a Writer.
func NewWriter(w io.Writer, procs int, opt WriterOptions) (*Writer, error) {
	if procs <= 0 || procs > 1<<16 {
		return nil, fmt.Errorf("tracestore: implausible processor count %d", procs)
	}
	tw := &Writer{
		w:           bufio.NewWriterSize(w, 1<<16),
		procs:       procs,
		seg:         opt.segmentRefs(),
		lastAddr:    make([]uint64, procs),
		perProc:     make([]uint64, procs),
		lastSidePos: -1,
	}
	var hdr []byte
	hdr = append(hdr, headerMagic[:]...)
	hdr = append(hdr, FormatVersion)
	hdr = binary.AppendUvarint(hdr, uint64(procs))
	hdr = binary.AppendUvarint(hdr, uint64(tw.seg))
	if _, err := tw.w.Write(hdr); err != nil {
		return nil, err
	}
	tw.off = int64(len(hdr))
	return tw, nil
}

// Err returns the sticky error, if any. Once set, further references are
// dropped and Close reports it.
func (w *Writer) Err() error { return w.err }

// fail records the first error.
func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Ref implements trace.Consumer: it appends one reference to the current
// segment, flushing the segment when it reaches the target size.
func (w *Writer) Ref(r trace.Ref) {
	if w.err != nil {
		return
	}
	if w.closed {
		w.fail(fmt.Errorf("tracestore: write after Close"))
		return
	}
	switch {
	case r.Kind == trace.Load || r.Kind == trace.Store:
		if int(r.Proc) >= w.procs {
			w.fail(fmt.Errorf("tracestore: proc %d out of range [0,%d)", r.Proc, w.procs))
			return
		}
		if w.nData%8 == 0 {
			w.ops = append(w.ops, 0)
		}
		if r.Kind == trace.Store {
			w.ops[w.nData>>3] |= 1 << (w.nData & 7)
		}
		if w.runLen > 0 && uint64(r.Proc) == w.runProc {
			w.runLen++
		} else {
			w.flushProcRun()
			w.runProc, w.runLen = uint64(r.Proc), 1
		}
		addr := uint64(r.Addr)
		w.addrCol = binary.AppendUvarint(w.addrCol, zigzag(int64(addr-w.lastAddr[r.Proc])))
		w.lastAddr[r.Proc] = addr
		if w.nData == 0 || addr < w.minAddr {
			w.minAddr = addr
		}
		if w.nData == 0 || addr > w.maxAddr {
			w.maxAddr = addr
		}
		w.perProc[r.Proc]++
		w.nData++
	case r.Kind == trace.Acquire || r.Kind == trace.Release || r.Kind == trace.Phase:
		if r.Kind != trace.Phase {
			if int(r.Proc) >= w.procs {
				w.fail(fmt.Errorf("tracestore: proc %d out of range [0,%d)", r.Proc, w.procs))
				return
			}
			w.perProc[r.Proc]++
		}
		// Side records carry the gap to the previous side reference's
		// position, so dense sync runs cost one byte of position each.
		w.sideCol = binary.AppendUvarint(w.sideCol, uint64(w.nRefs-w.lastSidePos-1))
		w.lastSidePos = w.nRefs
		w.sideCol = append(w.sideCol, byte(r.Kind))
		if r.Kind != trace.Phase {
			w.sideCol = binary.AppendUvarint(w.sideCol, uint64(r.Proc))
			w.sideCol = binary.AppendUvarint(w.sideCol, uint64(r.Addr))
		}
		w.nSide++
	default:
		w.fail(fmt.Errorf("tracestore: invalid reference kind %d", r.Kind))
		return
	}
	w.nRefs++
	if w.nRefs >= w.seg {
		w.flushSegment()
	}
}

// RefBatch implements trace.BatchConsumer.
func (w *Writer) RefBatch(refs []trace.Ref) {
	for _, r := range refs {
		w.Ref(r)
	}
}

// flushProcRun appends the open proc-column run as a (proc, length) pair.
func (w *Writer) flushProcRun() {
	if w.runLen == 0 {
		return
	}
	w.procCol = binary.AppendUvarint(w.procCol, w.runProc)
	w.procCol = binary.AppendUvarint(w.procCol, w.runLen)
	w.runLen = 0
}

// flushSegment encodes and writes the pending segment (payload then
// footer), records its TOC entry, and resets the accumulators.
func (w *Writer) flushSegment() {
	if w.err != nil || w.nRefs == 0 {
		return
	}
	w.flushProcRun()
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(w.nRefs))
	hdr = binary.AppendUvarint(hdr, uint64(w.nData))
	hdr = binary.AppendUvarint(hdr, uint64(w.nSide))
	hdr = binary.AppendUvarint(hdr, uint64(len(w.ops)))
	hdr = binary.AppendUvarint(hdr, uint64(len(w.procCol)))
	hdr = binary.AppendUvarint(hdr, uint64(len(w.addrCol)))
	hdr = binary.AppendUvarint(hdr, uint64(len(w.sideCol)))

	crc := crc32.ChecksumIEEE(hdr)
	crc = crc32.Update(crc, crc32.IEEETable, w.ops)
	crc = crc32.Update(crc, crc32.IEEETable, w.procCol)
	crc = crc32.Update(crc, crc32.IEEETable, w.addrCol)
	crc = crc32.Update(crc, crc32.IEEETable, w.sideCol)

	payloadLen := int64(len(hdr) + len(w.ops) + len(w.procCol) + len(w.addrCol) + len(w.sideCol))
	info := SegmentInfo{
		Offset:     w.off,
		PayloadLen: payloadLen,
		Refs:       uint64(w.nRefs),
		DataRefs:   uint64(w.nData),
		SideRefs:   uint64(w.nSide),
		MinAddr:    mem.Addr(w.minAddr),
		MaxAddr:    mem.Addr(w.maxAddr),
		CRC:        crc,
	}

	for _, col := range [][]byte{hdr, w.ops, w.procCol, w.addrCol, w.sideCol} {
		if _, err := w.w.Write(col); err != nil {
			w.fail(err)
			return
		}
	}
	w.off += payloadLen

	footer := appendSegmentIndex(nil, info, w.perProc)
	if _, err := w.w.Write(footer); err != nil {
		w.fail(err)
		return
	}
	w.off += int64(len(footer))

	w.toc = binary.AppendUvarint(w.toc, uint64(info.Offset))
	w.toc = binary.AppendUvarint(w.toc, uint64(info.PayloadLen))
	w.toc = append(w.toc, footer...)
	w.stats.Segments++
	w.stats.Refs += info.Refs
	w.stats.DataRefs += info.DataRefs
	w.stats.SideRefs += info.SideRefs

	w.ops = w.ops[:0]
	w.procCol = w.procCol[:0]
	w.addrCol = w.addrCol[:0]
	w.sideCol = w.sideCol[:0]
	w.nRefs, w.nData, w.nSide = 0, 0, 0
	w.lastSidePos = -1
	w.minAddr, w.maxAddr = 0, 0
	clear(w.lastAddr)
	clear(w.perProc)
}

// appendSegmentIndex encodes a segment's index fields and its
// per-processor reference counts (the per-segment footer; the TOC entry is
// the same encoding prefixed with the offset and payload length).
func appendSegmentIndex(b []byte, s SegmentInfo, perProc []uint64) []byte {
	b = binary.AppendUvarint(b, s.Refs)
	b = binary.AppendUvarint(b, s.DataRefs)
	b = binary.AppendUvarint(b, s.SideRefs)
	b = binary.AppendUvarint(b, uint64(s.MinAddr))
	b = binary.AppendUvarint(b, uint64(s.MaxAddr))
	for _, n := range perProc {
		b = binary.AppendUvarint(b, n)
	}
	return binary.LittleEndian.AppendUint32(b, s.CRC)
}

// Close flushes the last segment, writes the TOC and the trailer, and
// reports the sticky error if the stream failed earlier. It is idempotent
// and does not close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.flushSegment()
	if w.err != nil {
		w.closed = true
		return w.err
	}
	w.closed = true

	tocOff := w.off
	toc := binary.AppendUvarint(nil, uint64(w.stats.Segments))
	toc = append(toc, w.toc...)
	toc = binary.LittleEndian.AppendUint32(toc, crc32.ChecksumIEEE(toc))
	if _, err := w.w.Write(toc); err != nil {
		w.fail(err)
		return w.err
	}
	w.off += int64(len(toc))

	var trailer []byte
	trailer = binary.LittleEndian.AppendUint64(trailer, uint64(tocOff))
	trailer = binary.LittleEndian.AppendUint32(trailer, uint32(len(toc)))
	trailer = append(trailer, trailerMagic[:]...)
	if _, err := w.w.Write(trailer); err != nil {
		w.fail(err)
		return w.err
	}
	w.off += int64(len(trailer))
	if err := w.w.Flush(); err != nil {
		w.fail(err)
		return w.err
	}

	sum := sha256.Sum256(toc)
	w.stats.Bytes = w.off
	w.stats.TOCDigest = hex.EncodeToString(sum[:])
	return nil
}

// Stats returns the pack summary; complete only after a successful Close.
func (w *Writer) Stats() PackStats { return w.stats }

// Pack drains r into dst in the on-disk format and closes r, reporting the
// reader's close error if the drain itself succeeded (the same contract as
// trace.Drive).
func Pack(dst io.Writer, r trace.Reader, opt WriterOptions) (PackStats, error) {
	w, err := NewWriter(dst, r.NumProcs(), opt)
	if err != nil {
		trace.CloseReader(r) //nolint:errcheck // error-path cleanup
		return PackStats{}, err
	}
	if err := trace.Drive(r, w); err != nil {
		return PackStats{}, err
	}
	if err := w.Close(); err != nil {
		return PackStats{}, err
	}
	return w.Stats(), nil
}

// PackFile packs r into path via a temp file and rename, so an interrupted
// pack never leaves a truncated file that looks complete.
func PackFile(path string, r trace.Reader, opt WriterOptions) (PackStats, error) {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-")
	if err != nil {
		trace.CloseReader(r) //nolint:errcheck // error-path cleanup
		return PackStats{}, err
	}
	stats, err := Pack(tmp, r, opt)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return PackStats{}, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return PackStats{}, err
	}
	return stats, nil
}
