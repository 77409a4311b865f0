package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	tr := New(16,
		L(0, 0), S(15, 99), A(7, 12345), R(7, 12345), P(), L(3, 77),
	)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Procs != 16 || !reflect.DeepEqual(got.Refs, tr.Refs) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got.Refs, tr.Refs)
	}
}

func TestParseTextHandWritten(t *testing.T) {
	input := `
# A hand-written trace.
procs 2

P0 ST 0
P1 LD 0x10
PH
P1 ACQ 64
P1 REL 64
`
	got, err := ParseText(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := []Ref{S(0, 0), L(1, 16), P(), A(1, 64), R(1, 64)}
	if !reflect.DeepEqual(got.Refs, want) {
		t.Errorf("got %v, want %v", got.Refs, want)
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := map[string]string{
		"no header":      "P0 LD 0\n",
		"empty":          "",
		"bad proc count": "procs zero\n",
		"neg procs":      "procs -1\n",
		"bad proc":       "procs 2\nP9 LD 0\n",
		"no P prefix":    "procs 2\nQ0 LD 0\n",
		"bad kind":       "procs 2\nP0 XX 0\n",
		"bad addr":       "procs 2\nP0 LD zap\n",
		"short line":     "procs 2\nP0 LD\n",
		"phase operand":  "procs 2\nPH 3\n",
	}
	for name, input := range cases {
		if _, err := ParseText(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
}
