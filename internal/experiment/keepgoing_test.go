package experiment

// Keep-going rendering for the drivers whose cells span several report
// rows: a cell whose trace cannot be read marks every row it feeds FAILED,
// and the other workloads' rows still render.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/tracestore"
	"repro/internal/workload"
)

// TestLargeKeepGoingFailsBothBlocks: a §7 cell drives one protocol at both
// block sizes, so a cell whose trace cannot be read marks both of that
// protocol's rows FAILED, and the other workload's rows still render.
func TestLargeKeepGoingFailsBothBlocks(t *testing.T) {
	w, err := workload.Get("LU32")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "LU32.umt")
	if _, err := w.PackFile(path, tracestore.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff // inside the segment data: a checksum failure on read
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	files, err := OpenTraceFiles(map[string]string{"LU32": path})
	if err != nil {
		t.Fatal(err)
	}
	defer files.Close()
	var sb strings.Builder
	o := Options{Out: &sb, Workloads: []string{"LU32", "JACOBI"}, Protocols: []string{"MIN", "OTF"},
		Parallelism: 1, KeepGoing: true, TraceFiles: files}
	if err := Large(o); !errors.Is(err, ErrPartial) {
		t.Fatalf("Large = %v, want a partial-result error", err)
	}
	out := sb.String()
	for _, b := range []int{64, 1024} {
		for _, proto := range o.Protocols {
			failed := regexp.MustCompile(fmt.Sprintf(`(?m)^LU32 +%d +%s +FAILED`, b, proto))
			ok := regexp.MustCompile(fmt.Sprintf(`(?m)^JACOBI +%d +%s +[0-9]`, b, proto))
			if !failed.MatchString(out) || !ok.MatchString(out) {
				t.Errorf("B=%d %s: want LU32 FAILED and JACOBI rendered:\n%s", b, proto, out)
			}
		}
	}
}

// TestTable1KeepGoingFailsWorkloadRows: a workload whose trace cannot be
// read marks both of its Table 1 block rows FAILED, names each in the
// partial-report footer, and the other workload's rows still render.
func TestTable1KeepGoingFailsWorkloadRows(t *testing.T) {
	w, err := workload.Get("LU32")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "LU32.umt")
	if _, err := w.PackFile(path, tracestore.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff // inside the segment data: a checksum failure on read
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	files, err := OpenTraceFiles(map[string]string{"LU32": path})
	if err != nil {
		t.Fatal(err)
	}
	defer files.Close()
	var sb strings.Builder
	o := Options{Out: &sb, Workloads: []string{"LU32", "JACOBI"}, Parallelism: 1, KeepGoing: true, TraceFiles: files}
	if err := Table1(o); !errors.Is(err, ErrPartial) {
		t.Fatalf("Table1 = %v, want a partial-result error", err)
	}
	out := sb.String()
	for _, b := range []int{32, 1024} {
		failed := regexp.MustCompile(fmt.Sprintf(`(?m)^LU32 +%d +FAILED *$`, b))
		ok := regexp.MustCompile(fmt.Sprintf(`(?m)^JACOBI +%d +FS +torrellas +[0-9]`, b))
		if !failed.MatchString(out) || !ok.MatchString(out) {
			t.Errorf("B=%d: want LU32 FAILED and JACOBI rendered:\n%s", b, out)
		}
	}
	footer := regexp.MustCompile(`(?m)^PARTIAL: 2 of the sweep cells failed; failed cells are marked FAILED\n` +
		`  failed LU32 B=32: (.*payload checksum mismatch.*)\n` +
		`  failed LU32 B=1024: (.*payload checksum mismatch.*)\n`)
	m := footer.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("want a two-line PARTIAL footer naming both LU32 blocks:\n%s", out)
	}
	if m[1] != m[2] {
		t.Errorf("the two LU32 rows name different failures: %q and %q", m[1], m[2])
	}
}
