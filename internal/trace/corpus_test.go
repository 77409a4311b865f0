package trace

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
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
// package. They mirror and extend the f.Add seeds: text traces exercising
// every directive, and classifier inputs touching the aliasing and
// wraparound edges.
func seedCorpora() map[string][]string {
	return map[string][]string{
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
	for target, entries := range seedCorpora() {
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
