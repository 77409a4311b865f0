package workload

import (
	"io"
	"testing"

	"repro/internal/trace"
)

// drain reads r to the end on the per-reference path.
func drain(t *testing.T, r trace.Reader) []trace.Ref {
	t.Helper()
	var out []trace.Ref
	for {
		ref, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("reader error: %v", err)
		}
		out = append(out, ref)
	}
}

// TestRepeatReader: times back-to-back generations in one stream, read on
// the per-ref path across the generation boundaries, and Close releases
// the in-flight generation.
func TestRepeatReader(t *testing.T) {
	w, err := Get("LU32")
	if err != nil {
		t.Fatal(err)
	}
	one := drain(t, w.Reader())
	got := drain(t, w.RepeatReader(3))
	if len(got) != 3*len(one) {
		t.Fatalf("3 repeats: %d refs, want %d", len(got), 3*len(one))
	}
	for i, r := range got {
		if r != one[i%len(one)] {
			t.Fatalf("ref %d: got %v, want %v", i, r, one[i%len(one)])
		}
	}
	r := w.RepeatReader(2)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if err := trace.CloseReader(r); err != nil {
		t.Fatal(err)
	}
}
