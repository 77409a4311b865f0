package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// goldenCases fixes each subcommand's arguments (minus -j). The workload and
// block subsets keep a full run under a few seconds; the traces themselves
// are deterministic generators, so the bytes are stable across platforms.
var goldenCases = []struct {
	name string
	args []string
}{
	{"table1", []string{"table1", "-quick"}},
	{"table2", []string{"table2", "-quick"}},
	{"fig5", []string{"fig5", "-workloads", "LU32,JACOBI", "-blocks", "8,64,512"}},
	{"fig6a", []string{"fig6", "-workloads", "LU32,JACOBI", "-block", "64"}},
	{"compare", []string{"compare", "-workloads", "LU32,JACOBI", "-block", "64"}},
	{"penalty", []string{"penalty", "-workloads", "LU32,JACOBI", "-block", "64"}},
	{"large", []string{"large", "-quick", "-workloads", "LU32,JACOBI"}},
	{"traffic", []string{"traffic", "-workloads", "LU32,JACOBI"}},
	{"ablate-cu", []string{"ablate", "-what", "cu", "-workloads", "LU32,JACOBI"}},
	// wbwi and sector at the block size regen renders them with.
	{"ablate-wbwi", []string{"ablate", "-what", "wbwi", "-block", "1024", "-workloads", "LU32,JACOBI"}},
	{"ablate-sector", []string{"ablate", "-what", "sector", "-block", "1024", "-workloads", "LU32,JACOBI"}},
}

// runGolden executes one subcommand with the given extra flags appended.
func runGolden(t *testing.T, args []string, extra ...string) string {
	t.Helper()
	var sb strings.Builder
	full := append(append([]string{}, args...), extra...)
	if err := run(full, &sb); err != nil {
		t.Fatalf("%v: %v", full, err)
	}
	return sb.String()
}

// TestGoldenOutputs pins each experiment's exact stdout and proves the
// parallel pipeline is deterministic end to end: the serial run (-j 1) and
// the parallel sweep (-j 8) must both match the committed golden byte for
// byte. Refresh with:
//
//	go test ./cmd/uselessmiss -run TestGoldenOutputs -update
func TestGoldenOutputs(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", tc.name+".txt")
			serial := runGolden(t, tc.args, "-j", "1")

			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(serial), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if serial != string(want) {
				t.Errorf("-j 1 output differs from golden %s:\n got:\n%s\nwant:\n%s",
					path, serial, want)
			}
			if got := runGolden(t, tc.args, "-j", "8"); got != string(want) {
				t.Errorf("-j 8 output differs from golden %s:\n got:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}
