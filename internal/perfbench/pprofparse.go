// Package perfbench is the profile-guided benchmark harness behind the
// `uselessmiss bench` subcommand and the `make bench-gate` CI perf gate.
//
// It runs each representative workload of the replay engine (the three
// classifiers, the seven invalidation schedules, the finite cache, the
// trace store, workload generation and an end-to-end figure sweep) under a
// CPU profile, decodes the pprof protobuf with a hand-rolled decoder (no
// module dependencies), attributes the samples to named phases
// (generation, replay, classify, render), and
// emits a schema-versioned machine-readable report. A committed baseline
// report plus Compare turn every number in results/*.txt into a defended
// floor: CI fails with a readable regression table when a change slows a
// workload beyond tolerance or reintroduces allocations on a pinned path.
package perfbench

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// Profile is the subset of the pprof profile.proto message the harness
// needs: the sample types, the samples, and the location → function-name
// resolution chain. Values it does not use (mappings, labels, line
// numbers) are parsed past, not retained.
type Profile struct {
	// SampleTypes names the per-sample value columns, e.g. {samples,count},
	// {cpu,nanoseconds}.
	SampleTypes []ValueType
	// Samples are the raw samples; location IDs are leaf-first.
	Samples []Sample
	// DurationNanos is the profile's wall-clock coverage.
	DurationNanos int64
	// Period is the sampling period in PeriodType units.
	Period int64

	funcs  map[uint64]string   // function id → name
	locs   map[uint64][]uint64 // location id → function ids, leaf-first
	strtab []string

	// Deferred string-table resolution state: the string table may follow
	// the messages that reference it, so indices are recorded during the
	// field walk and resolved at the end of ParseProfile.
	funcNameIdx   map[uint64]int64
	sampleTypeIdx [][2]int64
}

// ValueType is one sample-value column: a type and unit, e.g. cpu/nanoseconds.
type ValueType struct {
	Type string
	Unit string
}

// Sample is one pprof sample: a call stack (leaf first) and one value per
// sample type.
type Sample struct {
	LocationIDs []uint64
	Values      []int64
}

// CPUValueIndex returns the index of the cpu/nanoseconds value column, or
// the last column when no cpu column exists (the pprof convention: the
// last sample type is the default).
func (p *Profile) CPUValueIndex() int {
	for i, st := range p.SampleTypes {
		if st.Type == "cpu" {
			return i
		}
	}
	return len(p.SampleTypes) - 1
}

// FuncStack resolves a sample's call stack to function names, leaf first.
// Locations with several lines (inlined frames) expand in order, innermost
// first, matching the proto's layout.
func (p *Profile) FuncStack(s Sample) []string {
	stack := make([]string, 0, len(s.LocationIDs))
	for _, loc := range s.LocationIDs {
		for _, fid := range p.locs[loc] {
			stack = append(stack, p.funcs[fid])
		}
	}
	return stack
}

// ParseProfile decodes a pprof CPU (or heap) profile as written by
// runtime/pprof: an optionally gzip-compressed profile.proto message. Only
// the fields the phase attribution needs are retained.
func ParseProfile(r io.Reader) (*Profile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("perfbench: reading profile: %w", err)
	}
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		gz, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("perfbench: gunzip profile: %w", err)
		}
		if data, err = io.ReadAll(gz); err != nil {
			return nil, fmt.Errorf("perfbench: gunzip profile: %w", err)
		}
		if err := gz.Close(); err != nil {
			return nil, fmt.Errorf("perfbench: gunzip profile: %w", err)
		}
	}
	p := &Profile{
		funcs: make(map[uint64]string),
		locs:  make(map[uint64][]uint64),
	}
	if err := p.parseTop(data); err != nil {
		return nil, err
	}
	// String indices were recorded during the field walk; resolve them now
	// that the whole string table is known (the table may follow the
	// messages that reference it).
	for id, idx := range p.funcNameIdx {
		if idx < 0 || int(idx) >= len(p.strtab) {
			return nil, fmt.Errorf("perfbench: function %d: string index %d out of range", id, idx)
		}
		p.funcs[id] = p.strtab[idx]
	}
	for i := range p.sampleTypeIdx {
		ti, ui := p.sampleTypeIdx[i][0], p.sampleTypeIdx[i][1]
		if int(ti) >= len(p.strtab) || int(ui) >= len(p.strtab) || ti < 0 || ui < 0 {
			return nil, fmt.Errorf("perfbench: sample type %d: string index out of range", i)
		}
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: p.strtab[ti], Unit: p.strtab[ui]})
	}
	return p, nil
}

// idx lazily initializes the deferred-resolution maps.
func (p *Profile) idx() {
	if p.funcNameIdx == nil {
		p.funcNameIdx = make(map[uint64]int64)
	}
}

// protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// buffer is a minimal protobuf wire-format reader.
type buffer struct {
	data []byte
	pos  int
}

func (b *buffer) empty() bool { return b.pos >= len(b.data) }

// varint decodes one base-128 varint.
func (b *buffer) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if b.pos >= len(b.data) {
			return 0, fmt.Errorf("perfbench: truncated varint")
		}
		c := b.data[b.pos]
		b.pos++
		v |= uint64(c&0x7f) << shift
		if c&0x80 == 0 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("perfbench: varint overflows 64 bits")
}

// field decodes one field key and returns the field number and wire type.
func (b *buffer) field() (num int, wire int, err error) {
	key, err := b.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(key >> 3), int(key & 7), nil
}

// bytesField decodes a length-delimited payload.
func (b *buffer) bytesField() ([]byte, error) {
	n, err := b.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b.data)-b.pos) {
		return nil, fmt.Errorf("perfbench: length-delimited field of %d bytes overruns buffer", n)
	}
	out := b.data[b.pos : b.pos+int(n)]
	b.pos += int(n)
	return out, nil
}

// skip discards one field payload of the given wire type.
func (b *buffer) skip(wire int) error {
	switch wire {
	case wireVarint:
		_, err := b.varint()
		return err
	case wireFixed64:
		if len(b.data)-b.pos < 8 {
			return fmt.Errorf("perfbench: truncated fixed64")
		}
		b.pos += 8
		return nil
	case wireBytes:
		_, err := b.bytesField()
		return err
	case wireFixed32:
		if len(b.data)-b.pos < 4 {
			return fmt.Errorf("perfbench: truncated fixed32")
		}
		b.pos += 4
		return nil
	default:
		return fmt.Errorf("perfbench: unsupported wire type %d", wire)
	}
}

// packedUint64s decodes a repeated numeric field that may arrive packed
// (length-delimited run of varints) or as a single unpacked varint.
func packedUint64s(b *buffer, wire int, dst []uint64) ([]uint64, error) {
	switch wire {
	case wireBytes:
		payload, err := b.bytesField()
		if err != nil {
			return nil, err
		}
		pb := buffer{data: payload}
		for !pb.empty() {
			v, err := pb.varint()
			if err != nil {
				return nil, err
			}
			dst = append(dst, v)
		}
		return dst, nil
	case wireVarint:
		v, err := b.varint()
		if err != nil {
			return nil, err
		}
		return append(dst, v), nil
	default:
		return nil, fmt.Errorf("perfbench: repeated numeric field with wire type %d", wire)
	}
}

// parseTop walks the top-level Profile message.
func (p *Profile) parseTop(data []byte) error {
	p.idx()
	b := &buffer{data: data}
	for !b.empty() {
		num, wire, err := b.field()
		if err != nil {
			return err
		}
		switch num {
		case 1: // sample_type (ValueType)
			msg, err := b.bytesField()
			if err != nil {
				return err
			}
			ti, ui, err := parseValueType(msg)
			if err != nil {
				return err
			}
			p.sampleTypeIdx = append(p.sampleTypeIdx, [2]int64{ti, ui})
		case 2: // sample
			msg, err := b.bytesField()
			if err != nil {
				return err
			}
			s, err := parseSample(msg)
			if err != nil {
				return err
			}
			p.Samples = append(p.Samples, s)
		case 4: // location
			msg, err := b.bytesField()
			if err != nil {
				return err
			}
			if err := p.parseLocation(msg); err != nil {
				return err
			}
		case 5: // function
			msg, err := b.bytesField()
			if err != nil {
				return err
			}
			if err := p.parseFunction(msg); err != nil {
				return err
			}
		case 6: // string_table
			s, err := b.bytesField()
			if err != nil {
				return err
			}
			p.strtab = append(p.strtab, string(s))
		case 10: // duration_nanos
			v, err := b.varint()
			if err != nil {
				return err
			}
			p.DurationNanos = int64(v)
		case 12: // period
			v, err := b.varint()
			if err != nil {
				return err
			}
			p.Period = int64(v)
		default:
			if err := b.skip(wire); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseValueType returns the type and unit string indices of a ValueType
// message.
func parseValueType(data []byte) (typ, unit int64, err error) {
	b := &buffer{data: data}
	for !b.empty() {
		num, wire, err := b.field()
		if err != nil {
			return 0, 0, err
		}
		switch num {
		case 1:
			v, err := b.varint()
			if err != nil {
				return 0, 0, err
			}
			typ = int64(v)
		case 2:
			v, err := b.varint()
			if err != nil {
				return 0, 0, err
			}
			unit = int64(v)
		default:
			if err := b.skip(wire); err != nil {
				return 0, 0, err
			}
		}
	}
	return typ, unit, nil
}

// parseSample decodes a Sample message: location_id and value arrays.
func parseSample(data []byte) (Sample, error) {
	var s Sample
	b := &buffer{data: data}
	for !b.empty() {
		num, wire, err := b.field()
		if err != nil {
			return s, err
		}
		switch num {
		case 1: // location_id, repeated
			if s.LocationIDs, err = packedUint64s(b, wire, s.LocationIDs); err != nil {
				return s, err
			}
		case 2: // value, repeated
			var vals []uint64
			if vals, err = packedUint64s(b, wire, nil); err != nil {
				return s, err
			}
			for _, v := range vals {
				s.Values = append(s.Values, int64(v))
			}
		default:
			if err := b.skip(wire); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

// parseLocation records a Location's function-id chain (its Line messages,
// innermost first).
func (p *Profile) parseLocation(data []byte) error {
	b := &buffer{data: data}
	var id uint64
	var fids []uint64
	for !b.empty() {
		num, wire, err := b.field()
		if err != nil {
			return err
		}
		switch num {
		case 1: // id
			if id, err = b.varint(); err != nil {
				return err
			}
		case 4: // line (message)
			msg, err := b.bytesField()
			if err != nil {
				return err
			}
			fid, err := parseLineFunctionID(msg)
			if err != nil {
				return err
			}
			fids = append(fids, fid)
		default:
			if err := b.skip(wire); err != nil {
				return err
			}
		}
	}
	p.locs[id] = fids
	return nil
}

// parseLineFunctionID extracts the function_id of a Line message.
func parseLineFunctionID(data []byte) (uint64, error) {
	b := &buffer{data: data}
	var fid uint64
	for !b.empty() {
		num, wire, err := b.field()
		if err != nil {
			return 0, err
		}
		if num == 1 {
			if fid, err = b.varint(); err != nil {
				return 0, err
			}
			continue
		}
		if err := b.skip(wire); err != nil {
			return 0, err
		}
	}
	return fid, nil
}

// parseFunction records a Function's name string index for deferred
// resolution.
func (p *Profile) parseFunction(data []byte) error {
	b := &buffer{data: data}
	var id uint64
	var nameIdx int64
	for !b.empty() {
		num, wire, err := b.field()
		if err != nil {
			return err
		}
		switch num {
		case 1: // id
			if id, err = b.varint(); err != nil {
				return err
			}
		case 2: // name (string table index)
			v, err := b.varint()
			if err != nil {
				return err
			}
			nameIdx = int64(v)
		default:
			if err := b.skip(wire); err != nil {
				return err
			}
		}
	}
	p.funcNameIdx[id] = nameIdx
	return nil
}
