package trace

// Microbenchmarks for the trace plumbing itself — batch draining and
// stream generation — so `make bench` (which sweeps ./...) tracks the
// streaming substrate separately from the classifiers that consume it.

import (
	"io"
	"testing"

	"repro/internal/mem"
)

// benchTrace builds a deterministic mixed read/write trace.
func benchTrace(procs, n int) *Trace {
	tr := New(procs)
	for i := 0; i < n; i++ {
		p := i % procs
		addr := mem.Addr((i * 7) % 4096)
		if i%5 == 0 {
			tr.Append(S(p, addr))
		} else {
			tr.Append(L(p, addr))
		}
	}
	return tr
}

func BenchmarkSliceReaderNextBatch(b *testing.B) {
	tr := benchTrace(4, 1<<14)
	buf := make([]Ref, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tr.Reader().(BatchReader)
		var total int
		for {
			n, err := r.NextBatch(buf)
			total += n
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if total != tr.Len() {
			b.Fatalf("drained %d of %d refs", total, tr.Len())
		}
	}
	b.SetBytes(int64(tr.Len()) * int64(refWireSizeEstimate))
}

// refWireSizeEstimate keeps SetBytes meaningful without depending on the
// in-memory struct layout.
const refWireSizeEstimate = 8

func BenchmarkGenerateStream(b *testing.B) {
	const n = 1 << 14
	buf := make([]Ref, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := Generate(4, func(e *Emitter) {
			for j := 0; j < n; j++ {
				e.Load(j%4, mem.Addr(j%4096))
			}
		})
		var total int
		for {
			cnt, err := g.NextBatch(buf)
			total += cnt
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if total != n {
			b.Fatalf("generated %d of %d refs", total, n)
		}
	}
}
