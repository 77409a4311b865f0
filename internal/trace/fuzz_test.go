package trace

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

// FuzzParseText checks the text parser never panics and that parsed traces
// re-render and re-parse to the same refs.
func FuzzParseText(f *testing.F) {
	f.Add("procs 2\nP0 LD 1\nP1 ST 0x10\nPH\n")
	f.Add("procs 1\n# comment\n\nP0 ACQ 5\nP0 REL 5\n")
	f.Add("procs 0\n")
	f.Add("P0 LD 1\n")
	f.Add("procs 2\nP9 LD 1\n")
	f.Add("")

	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseText(bytes.NewReader([]byte(input)))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("parser produced invalid trace: %v", err)
		}
		var out bytes.Buffer
		if err := WriteText(&out, tr.Reader()); err != nil {
			t.Fatal(err)
		}
		again, err := ParseText(&out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Len() != tr.Len() {
			t.Fatalf("re-parse lost refs: %d of %d", again.Len(), tr.Len())
		}
		for i := range tr.Refs {
			if again.Refs[i] != tr.Refs[i] {
				t.Fatalf("re-parse mismatch at %d: %v vs %v", i, again.Refs[i], tr.Refs[i])
			}
		}
	})
}

// FuzzClassifierRobustness drives arbitrary byte strings, interpreted as
// reference streams, through the full classification stack: nothing should
// panic and the accounting identities must hold.
func FuzzClassifierRobustness(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(3))
	f.Add([]byte{255, 254, 1, 1, 1}, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, procsRaw uint8) {
		procs := int(procsRaw%8) + 1
		tr := New(procs)
		for i := 0; i+2 < len(data); i += 3 {
			kind := Load
			if data[i]&1 == 1 {
				kind = Store
			}
			tr.Append(Ref{
				Kind: kind,
				Proc: uint16(int(data[i+1]) % procs),
				Addr: mem.Addr(data[i+2]),
			})
		}
		s := NewStats(procs, true)
		for _, r := range tr.Refs {
			s.Ref(r)
		}
		if s.DataRefs() != uint64(tr.Len()) {
			t.Fatalf("stats lost refs: %d of %d", s.DataRefs(), tr.Len())
		}
	})
}
