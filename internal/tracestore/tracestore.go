// Package tracestore implements the out-of-core trace artifact: a
// segmented, columnar, delta-compressed on-disk format for reference
// traces, plus a replay path that never materializes the whole trace.
//
// The format breaks the everything-in-RAM assumption of the slice readers
// and the sweep engine's TraceCache: a packed trace of billions of
// references replays with resident memory bounded by O(segment size +
// readahead), because segments decompress independently and decode straight
// into the replay engine's batch representation with zero per-reference
// allocations.
//
// # File layout (format version 1)
//
//	header:   magic "UMTS" | version byte | uvarint numProcs |
//	          uvarint segmentTargetRefs
//	segments: payload | footer, repeated
//	TOC:      uvarint segCount | one entry per segment | crc32(TOC) LE
//	trailer:  uint64 tocOffset LE | uint32 tocLen LE | magic "SMTU"
//
// Each segment payload is columnar: a count header (refs, data refs, side
// refs and the four column byte lengths), then the ops column (one
// load/store bit per data reference), the proc column (run-length encoded
// as uvarint (processor, runLength) pairs — the generators interleave at
// unit granularity, so runs are long and the column shrinks to a fraction
// of a byte per reference), the addr column (zigzag varint delta from the
// issuing processor's previous address in this segment) and the sparse side
// column (synchronization and phase references as position-gap records).
// Delta state resets at every segment boundary, so any segment decodes with
// no context but its own bytes.
//
// The footer after each payload repeats the segment's index — reference
// counts, min/max data address, per-processor counts and the payload CRC —
// making segments self-describing for recovery tools; the file-level TOC
// carries the same entries plus offsets so Open reads only the header and
// the TOC. Open validates the per-processor counts but keeps only the rest
// of each entry (SegmentInfo) in memory. Every payload is CRC-framed and
// the TOC is CRC'd as a whole: corrupt or truncated files surface errors
// wrapping ErrCorrupt, never misdecoded references.
package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/mem"
)

// FormatVersion is the on-disk format version this package writes; Open
// accepts exactly this version.
const FormatVersion = 1

// Magic is the four-byte prefix of every packed trace file. Open rejects a
// file without it with ErrCorrupt, so no caller needs to sniff it.
const Magic = "UMTS"

var (
	headerMagic  = [4]byte{Magic[0], Magic[1], Magic[2], Magic[3]}
	trailerMagic = [4]byte{'S', 'M', 'T', 'U'}
)

const (
	// trailerLen is the fixed byte length of the file trailer.
	trailerLen = 16

	// DefaultSegmentRefs is the default number of references per segment:
	// large enough that per-segment overheads (footer, TOC entry, delta
	// restart) vanish, small enough that a decoded segment buffer stays
	// around 1 MB.
	DefaultSegmentRefs = 1 << 16

	// maxSegmentRefs bounds a segment's reference count so a corrupt TOC
	// cannot force huge decode buffers.
	maxSegmentRefs = 1 << 22

	// maxRecordBytes is a loose per-reference ceiling on encoded bytes,
	// used to reject implausible payload lengths before allocating.
	maxRecordBytes = 32

	// minPayloadLen is the shortest segment payload the writer makes: the
	// count header of seven uvarints.
	minPayloadLen = 7

	// maxTOCBytes bounds the TOC read at Open.
	maxTOCBytes = 1 << 28
)

// ErrCorrupt reports a trace store whose framing failed validation: a bad
// header or trailer, a checksum mismatch, a truncated segment, or a
// malformed record inside a verified payload. All decode errors wrap it, so
// callers test with errors.Is(err, ErrCorrupt).
var ErrCorrupt = errors.New("tracestore: corrupt trace store")

// corruptf builds an error wrapping ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("tracestore: %s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

// SegmentInfo is one segment's index entry: everything a reader needs to
// locate and check the segment, and what 'trace info' reports about it,
// without touching its bytes.
type SegmentInfo struct {
	// Offset is the payload's byte offset from the start of the file.
	Offset int64
	// PayloadLen is the encoded payload length in bytes (footer excluded).
	PayloadLen int64
	// Refs is the total number of references in the segment.
	Refs uint64
	// DataRefs counts the load/store references.
	DataRefs uint64
	// SideRefs counts the synchronization and phase references.
	SideRefs uint64
	// MinAddr and MaxAddr bound the data addresses in the segment
	// (both zero when DataRefs is zero).
	MinAddr, MaxAddr mem.Addr
	// CRC is the IEEE CRC-32 of the payload bytes.
	CRC uint32
}

// addrOf narrows a decoded uvarint to the memory package's address type.
func addrOf(u uint64) mem.Addr { return mem.Addr(u) }

// zigzag maps a signed delta onto the unsigned varint space so small
// magnitudes of either sign encode in one or two bytes.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarint reads one uvarint from b at off with explicit bounds reporting.
func uvarint(b []byte, off int) (v uint64, n int, err error) {
	v, n = binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, 0, corruptf("malformed varint at byte %d", off)
	}
	return v, n, nil
}
