package experiment

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tracestore"
	"repro/internal/workload"
)

// TestDriversFailOnCorruptTraceFile: every driver replays a file-bound
// workload from its file (Options.source), so a packed file with a flipped
// payload byte fails each driver with the store's typed error, and the
// driver renders nothing.
func TestDriversFailOnCorruptTraceFile(t *testing.T) {
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
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			var out bytes.Buffer
			o := boundedOpts(&out, 2)
			o.TraceFiles = files
			if err := d.run(o); !errors.Is(err, tracestore.ErrCorrupt) {
				t.Fatalf("err = %v, want tracestore.ErrCorrupt", err)
			}
			if out.Len() != 0 {
				t.Errorf("failed driver rendered:\n%s", out.String())
			}
		})
	}
}
