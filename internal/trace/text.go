package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/mem"
)

// Text trace format, one reference per line:
//
//	procs 16        header (required first non-comment line)
//	P0 LD 1234      load of word 1234 by processor 0
//	P3 ST 17        store
//	P1 ACQ 4096     acquire on sync word 4096
//	P1 REL 4096     release
//	PH              phase marker
//	# comment       comments and blank lines are ignored
//
// The format exists for hand-written test inputs and for inspecting
// generated traces; the packed trace store (package tracestore) is the
// storage format.

// WriteText writes r's references to w in the text format and closes r.
func WriteText(w io.Writer, r Reader) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "procs %d\n", r.NumProcs()); err != nil {
		return err
	}
	defer CloseReader(r) //nolint:errcheck // best-effort close after drain
	for {
		ref, err := r.Next()
		if err == io.EOF {
			return bw.Flush()
		}
		if err != nil {
			return err
		}
		if _, err := bw.WriteString(ref.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
}

// ParseText reads an entire text-format trace into memory.
func ParseText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	var t *Trace
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if t == nil {
			procs, err := parseHeader(line)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			t = New(procs)
			continue
		}
		ref, err := parseLine(line, t.Procs)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		t.Refs = append(t.Refs, ref)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t == nil {
		return nil, fmt.Errorf("trace: missing 'procs N' header")
	}
	return t, nil
}

func parseHeader(line string) (int, error) {
	fields := strings.Fields(line)
	if len(fields) != 2 || fields[0] != "procs" {
		return 0, fmt.Errorf("expected 'procs N' header, got %q", line)
	}
	procs, err := strconv.Atoi(fields[1])
	if err != nil || procs <= 0 || procs > 1<<16 {
		return 0, fmt.Errorf("bad processor count %q", fields[1])
	}
	return procs, nil
}

func parseLine(line string, procs int) (Ref, error) {
	fields := strings.Fields(line)
	if fields[0] == "PH" {
		if len(fields) != 1 {
			return Ref{}, fmt.Errorf("phase marker takes no operands: %q", line)
		}
		return P(), nil
	}
	if len(fields) != 3 {
		return Ref{}, fmt.Errorf("expected 'P<n> KIND addr', got %q", line)
	}
	if !strings.HasPrefix(fields[0], "P") {
		return Ref{}, fmt.Errorf("bad processor field %q", fields[0])
	}
	proc, err := strconv.Atoi(fields[0][1:])
	if err != nil || proc < 0 || proc >= procs {
		return Ref{}, fmt.Errorf("bad processor %q (procs=%d)", fields[0], procs)
	}
	var kind Kind
	switch fields[1] {
	case "LD":
		kind = Load
	case "ST":
		kind = Store
	case "ACQ":
		kind = Acquire
	case "REL":
		kind = Release
	default:
		return Ref{}, fmt.Errorf("unknown kind %q", fields[1])
	}
	addr, err := strconv.ParseUint(fields[2], 0, 64)
	if err != nil {
		return Ref{}, fmt.Errorf("bad address %q: %v", fields[2], err)
	}
	return Ref{Proc: uint16(proc), Kind: kind, Addr: mem.Addr(addr)}, nil
}
