package trace

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/mem"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed fuzz seed corpora")

// corpusEntry renders one seed in the `go test fuzz v1` file format, one
// argument literal per line.
func corpusEntry(args ...any) string {
	var b bytes.Buffer
	b.WriteString("go test fuzz v1\n")
	for _, arg := range args {
		switch v := arg.(type) {
		case []byte:
			fmt.Fprintf(&b, "[]byte(%s)\n", strconv.Quote(string(v)))
		case string:
			fmt.Fprintf(&b, "string(%s)\n", strconv.Quote(v))
		case uint8:
			fmt.Fprintf(&b, "byte(%s)\n", strconv.QuoteRune(rune(v)))
		default:
			panic(fmt.Sprintf("corpusEntry: unsupported seed type %T", arg))
		}
	}
	return b.String()
}

// seedCorpora enumerates the committed seeds for every fuzz target in this
// package. They mirror and extend the f.Add seeds: a valid binary trace and
// systematic corruptions of it, text traces exercising every directive, and
// classifier inputs touching the aliasing and wraparound edges.
func seedCorpora(t testing.TB) map[string][]string {
	var buf bytes.Buffer
	tr := New(4, L(0, 1), S(3, 1<<30), A(1, 7), R(1, 7), P())
	if err := WriteBinary(&buf, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	truncated := valid[:len(valid)-1]
	mutated := bytes.Clone(valid)
	mutated[6] ^= 0xff

	// A version-1 stream built by hand (unframed records, bare-EOF
	// terminated) keeps the legacy decode path in the fuzz corpus now that
	// WriteBinary emits version 2.
	v1 := []byte{'U', 'M', 'T', 'R', binaryVersion1, 2} // header, procs=2
	for _, rec := range [][3]uint64{{uint64(Load), 0, 1}, {uint64(Store), 1, 1 << 20}, {uint64(Phase), 0, 0}} {
		v1 = append(v1, byte(rec[0]))
		v1 = binary.AppendUvarint(v1, rec[1])
		v1 = binary.AppendUvarint(v1, rec[2])
	}

	// Version-2 framing corruptions: a flipped checksum byte and an
	// implausible chunk length.
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-2] ^= 0xff // inside the final chunk's CRC
	hugeLen := append(bytes.Clone(valid[:6]), binary.AppendUvarint(nil, maxChunkBytes+1)...)

	var big bytes.Buffer
	wide := New(64)
	// Addresses clustered in one block's neighborhood so the decoder
	// exercises small deltas.
	const base = mem.Addr(1 << 12)
	for p := 0; p < 64; p++ {
		wide.Refs = append(wide.Refs, S(p, base+mem.Addr(p)), L(p, base))
	}
	if err := WriteBinary(&big, wide.Reader()); err != nil {
		t.Fatal(err)
	}

	return map[string][]string{
		"FuzzDecoder": {
			corpusEntry(valid),
			corpusEntry(truncated),
			corpusEntry(valid[:5]),
			corpusEntry([]byte("UMTR\x01")),
			corpusEntry([]byte{}),
			corpusEntry(mutated),
			corpusEntry(big.Bytes()),
			corpusEntry(append(bytes.Clone(valid), valid...)), // two headers back to back
			corpusEntry(v1),
			corpusEntry(badCRC),
			corpusEntry(hugeLen),
		},
		"FuzzParseText": {
			corpusEntry("procs 2\nP0 LD 1\nP1 ST 0x10\nPH\n"),
			corpusEntry("procs 1\n# comment\n\nP0 ACQ 5\nP0 REL 5\n"),
			corpusEntry("procs 0\n"),
			corpusEntry("P0 LD 1\n"),
			corpusEntry("procs 2\nP9 LD 1\n"),
			corpusEntry(""),
			corpusEntry("procs 16\nP15 ST 0xffffffff\nPH\nP0 LD 0\n"),
			corpusEntry("procs 2\nP0 LD 99999999999999999999\n"),
		},
		"FuzzClassifierRobustness": {
			corpusEntry([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(3)),
			corpusEntry([]byte{255, 254, 1, 1, 1}, uint8(1)),
			corpusEntry([]byte{1, 0, 16, 0, 1, 16, 1, 2, 16}, uint8(7)), // write races on one word
			corpusEntry(bytes.Repeat([]byte{1, 3, 255}, 32), uint8(0)),
			corpusEntry([]byte{}, uint8(255)),
		},
		// FuzzFusedEquivalence (external test package, fused_fuzz_test.go)
		// decodes 3-byte records (kind, proc, addr) into mixed
		// data/sync/phase traces; the first extra byte picks the processor
		// count, and geoRaw's low six bits select the nested geometry set
		// (4..128-byte blocks) while bit 6 duplicates a level, so the
		// hierarchical fused state sees every nesting shape.
		"FuzzFusedEquivalence": {
			corpusEntry([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint8(0b1011)),
			corpusEntry([]byte{5, 0, 9, 0, 1, 9, 6, 0, 9}, uint8(1), uint8(0b100001)), // finest+coarsest only
			corpusEntry([]byte{}, uint8(0), uint8(0)),
			corpusEntry(bytes.Repeat([]byte{3, 1, 8, 0, 2, 8, 7, 0, 0}, 16), uint8(5), uint8(0b1111111)), // all levels + duplicate
			corpusEntry([]byte{3, 0, 0, 0, 1, 0, 3, 1, 0, 0, 0, 0}, uint8(0), uint8(0b100)),              // ping-pong, single level
		},
	}
}

// TestFuzzSeedCorpora verifies the committed seed files under testdata/fuzz
// are exactly the canonical set (regenerate with -update-corpus). Plain
// `go test` also runs every committed seed through its fuzz target, so this
// test pins the files while the targets pin the behavior.
func TestFuzzSeedCorpora(t *testing.T) {
	for target, entries := range seedCorpora(t) {
		dir := filepath.Join("testdata", "fuzz", target)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for i, entry := range entries {
				name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
				if err := os.WriteFile(name, []byte(entry), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, entry := range entries {
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			got, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("%s: %v (regenerate with -update-corpus)", name, err)
			}
			if string(got) != entry {
				t.Errorf("%s is stale (regenerate with -update-corpus)", name)
			}
			_ = i
		}
	}
}
