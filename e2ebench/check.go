package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// goldenDir holds the CLI's golden outputs (quick table1 and table2).
const goldenDir = "cmd/uselessmiss/testdata/golden"

// quickLargeSHA256 pins regen -quick's large.txt, which no committed file
// holds: results/large.txt is the full-size run.
const quickLargeSHA256 = "d2b2406c6e3cd5ac7d48f9b2dbd7b886c2119c685412c0a689436d2f64a84bb0"

// compareOutput returns nil when got equals want byte for byte, otherwise
// an error naming the first differing byte.
func compareOutput(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("output differs from its reference at byte %d (got %d bytes, want %d)", i, len(got), len(want))
}

// readReference reads a committed reference output relative to the
// repository root.
func readReference(path string) ([]byte, error) {
	b, err := os.ReadFile(filepath.FromSlash(path))
	if err != nil {
		return nil, fmt.Errorf("reference output: %w", err)
	}
	return b, nil
}

// dropRows removes the table rows whose first column is name (the §7
// study's WATER288 rows, which the out-of-core workload leaves out).
func dropRows(b []byte, name string) []byte {
	var out []byte
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == name {
			continue
		}
		out = append(out, line...)
	}
	return out
}

// sha256Hex is the hex SHA-256 of b.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
