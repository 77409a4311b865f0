package tracestore

import "repro/internal/trace"

// decodeSegmentRef is the position-at-a-time segment decoder that
// decodeSegment replaced, kept as the differential reference for
// FuzzDecodeSegment: one side check per position, one binary.Uvarint per
// column value. It is that decoder with one check added: each column
// length is bounded by the payload before the lengths are summed, so
// lengths whose int64 sum wraps to the payload size fail instead of
// slicing out of range.
func decodeSegmentRef(enc []byte, s SegmentInfo, procs int, lastAddr []uint64, dst []trace.Ref) ([]trace.Ref, error) {
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
	for _, l := range hdr[3:] {
		if l > uint64(len(enc)) {
			return nil, corruptf("column length %d exceeds payload %d", l, len(enc))
		}
	}
	colEnd := int64(off) + int64(hdr[3]) + int64(hdr[4]) + int64(hdr[5]) + int64(hdr[6])
	if colEnd != int64(len(enc)) {
		return nil, corruptf("column lengths sum to %d, payload is %d", colEnd, len(enc))
	}
	if wantOps := (nData + 7) / 8; hdr[3] != wantOps {
		return nil, corruptf("ops column is %d bytes, want %d", hdr[3], wantOps)
	}
	ops := enc[off : off+int(hdr[3])]
	procCol := enc[off+int(hdr[3]) : off+int(hdr[3])+int(hdr[4])]
	addrCol := enc[off+int(hdr[3])+int(hdr[4]) : off+int(hdr[3])+int(hdr[4])+int(hdr[5])]
	sideCol := enc[colEnd-int64(hdr[6]):]

	if want := int(nRefs); cap(dst) < want {
		dst = make([]trace.Ref, 0, want)
	}
	dst = dst[:nRefs]
	clear(lastAddr)

	// Walk the side column once to learn the next side position, then
	// interleave: data references fill every position not claimed by a
	// side record.
	var (
		pOff, aOff, sOff int
		dataIdx          uint64
		sidePrev         = -1
		nextSide         = -1
		sideLeft         = nSide
		runProc          uint64 // processor of the current proc-column run
		runLeft          uint64 // data refs left in it
	)
	advanceSide := func() error {
		if sideLeft == 0 {
			nextSide = -1
			return nil
		}
		gap, n, err := uvarint(sideCol, sOff)
		if err != nil {
			return err
		}
		sOff += n
		next := int64(sidePrev) + 1 + int64(gap)
		if next >= int64(nRefs) {
			return corruptf("side record position %d past segment end %d", next, nRefs)
		}
		nextSide = int(next)
		return nil
	}
	if err := advanceSide(); err != nil {
		return nil, err
	}
	for pos := 0; pos < int(nRefs); pos++ {
		if pos == nextSide {
			if sOff >= len(sideCol) {
				return nil, corruptf("truncated side record at position %d", pos)
			}
			kind := trace.Kind(sideCol[sOff])
			sOff++
			r := trace.Ref{Kind: kind}
			switch kind {
			case trace.Acquire, trace.Release:
				p, n, err := uvarint(sideCol, sOff)
				if err != nil {
					return nil, err
				}
				sOff += n
				if p >= uint64(procs) {
					return nil, corruptf("side proc %d out of range [0,%d)", p, procs)
				}
				a, n, err := uvarint(sideCol, sOff)
				if err != nil {
					return nil, err
				}
				sOff += n
				r.Proc = uint16(p)
				r.Addr = addrOf(a)
			case trace.Phase:
				// no operands
			default:
				return nil, corruptf("invalid side record kind %d", kind)
			}
			dst[pos] = r
			sidePrev = pos
			sideLeft--
			if err := advanceSide(); err != nil {
				return nil, err
			}
			continue
		}
		if dataIdx >= nData {
			return nil, corruptf("more data positions than data records")
		}
		if runLeft == 0 {
			p, n, err := uvarint(procCol, pOff)
			if err != nil {
				return nil, err
			}
			pOff += n
			if p >= uint64(procs) {
				return nil, corruptf("data proc %d out of range [0,%d)", p, procs)
			}
			l, n, err := uvarint(procCol, pOff)
			if err != nil {
				return nil, err
			}
			pOff += n
			if l == 0 || l > nData-dataIdx {
				return nil, corruptf("proc run of %d at data record %d, segment has %d", l, dataIdx, nData)
			}
			runProc, runLeft = p, l
		}
		p := runProc
		runLeft--
		d, n, err := uvarint(addrCol, aOff)
		if err != nil {
			return nil, err
		}
		aOff += n
		addr := lastAddr[p] + uint64(unzigzag(d))
		lastAddr[p] = addr
		kind := trace.Load
		if ops[dataIdx>>3]&(1<<(dataIdx&7)) != 0 {
			kind = trace.Store
		}
		dst[pos] = trace.Ref{Addr: addrOf(addr), Proc: uint16(p), Kind: kind}
		dataIdx++
	}
	if sideLeft != 0 {
		return nil, corruptf("%d side records unplaced", sideLeft)
	}
	if dataIdx != nData {
		return nil, corruptf("decoded %d data records, index claims %d", dataIdx, nData)
	}
	if runLeft != 0 {
		return nil, corruptf("proc run overruns the segment by %d", runLeft)
	}
	if pOff != len(procCol) || aOff != len(addrCol) || sOff != len(sideCol) {
		return nil, corruptf("trailing column bytes after decode")
	}
	return dst, nil
}
