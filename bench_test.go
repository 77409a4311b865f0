package uselessmiss

// The benchmark harness: one testing.B benchmark per paper artifact
// (Tables 1-2, Fig. 5, Fig. 6a/6b, the §7 large-set study) plus component
// microbenchmarks for the classifiers, the protocol simulators and the
// workload generators. Each experiment benchmark runs
// the same code path as the corresponding `uselessmiss` subcommand; the
// large-set benchmark uses proportionally scaled-down runs so a benchmark
// iteration stays in seconds (the full-size runs are driven by
// `uselessmiss table1` / `uselessmiss large`).

import (
	"io"
	"sync"
	"testing"
)

// benchTrace caches one in-memory LU32 trace for the microbenchmarks.
var benchTrace = sync.OnceValue(func() *Trace {
	w, err := Workload("LU32")
	if err != nil {
		panic(err)
	}
	tr, err := Collect(w.Reader())
	if err != nil {
		panic(err)
	}
	return tr
})

func benchOpts() ExperimentOptions {
	return ExperimentOptions{Out: io.Discard, Quick: true}
}

// BenchmarkTable1 regenerates the classification comparison of Table 1
// (quick data sets; the full LU200/MP3D10000 table is `uselessmiss table1`).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := Table1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates the benchmark characteristics of Table 2.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := Table2(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates the per-benchmark block-size sweeps of Fig. 5.
func BenchmarkFig5(b *testing.B) {
	for _, name := range SmallWorkloads() {
		b.Run(name, func(b *testing.B) {
			o := benchOpts()
			o.Workloads = []string{name}
			for i := 0; i < b.N; i++ {
				if err := Fig5(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6a and BenchmarkFig6b regenerate the protocol comparisons at
// the cache (64 B) and page (1024 B) block sizes.
func BenchmarkFig6a(b *testing.B) { benchFig6(b, 64) }

func BenchmarkFig6b(b *testing.B) { benchFig6(b, 1024) }

func benchFig6(b *testing.B, block int) {
	for _, name := range SmallWorkloads() {
		b.Run(name, func(b *testing.B) {
			o := benchOpts()
			o.Workloads = []string{name}
			for i := 0; i < b.N; i++ {
				if err := Fig6(o, block); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLargeSetsScaled runs the §7 schedule study on runs scaled to a
// few percent of the paper's large data sets, preserving the object sizes
// and sharing structure.
func BenchmarkLargeSetsScaled(b *testing.B) {
	scaled := []*Benchmark{
		LU(100, 16),
		MP3D(4000, 2, 16),
		Water(96, 1, 16),
	}
	for _, w := range scaled {
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, block := range []int{64, 1024} {
					g := MustGeometry(block)
					for _, proto := range []string{"MIN", "OTF", "SRD"} {
						if _, err := RunProtocol(proto, w.Reader(), g); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// Component microbenchmarks. Throughput is reported in refs/s via the ns/op
// of one full pass over the cached LU32 trace (~70k references).

func BenchmarkClassifierOurs(b *testing.B) {
	tr := benchTrace()
	g := MustGeometry(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Classify(tr.Reader(), g); err != nil {
			b.Fatal(err)
		}
	}
	reportRefRate(b, tr)
}

func BenchmarkClassifierEggers(b *testing.B) {
	tr := benchTrace()
	g := MustGeometry(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ClassifyEggers(tr.Reader(), g); err != nil {
			b.Fatal(err)
		}
	}
	reportRefRate(b, tr)
}

func BenchmarkClassifierTorrellas(b *testing.B) {
	tr := benchTrace()
	g := MustGeometry(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ClassifyTorrellas(tr.Reader(), g); err != nil {
			b.Fatal(err)
		}
	}
	reportRefRate(b, tr)
}

func BenchmarkProtocol(b *testing.B) {
	tr := benchTrace()
	g := MustGeometry(64)
	for _, name := range Protocols() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunProtocol(name, tr.Reader(), g); err != nil {
					b.Fatal(err)
				}
			}
			reportRefRate(b, tr)
		})
	}
}

// BenchmarkBatchDrain measures the two reference-delivery paths over the
// cached trace: per-ref Next calls versus NextBatch into a reusable buffer.
// The spread between the subbenchmarks is the dispatch overhead the batched
// replay engine removes.
func BenchmarkBatchDrain(b *testing.B) {
	tr := benchTrace()
	b.Run("next", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := tr.Reader()
			for {
				if _, err := r.Next(); err != nil {
					break
				}
			}
		}
		reportRefRate(b, tr)
	})
	b.Run("batch", func(b *testing.B) {
		buf := make([]Ref, 1024)
		for i := 0; i < b.N; i++ {
			r := tr.Reader().(BatchReader)
			for {
				if _, err := r.NextBatch(buf); err != nil {
					break
				}
			}
		}
		reportRefRate(b, tr)
	})
}

// BenchmarkDriveClassifier measures the full replay engine (Drive) feeding
// the Appendix A classifier, the end-to-end unit the experiments repeat.
func BenchmarkDriveClassifier(b *testing.B) {
	tr := benchTrace()
	g := MustGeometry(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewClassifier(tr.Procs, g)
		if err := Drive(tr.Reader(), c); err != nil {
			b.Fatal(err)
		}
		c.Finish()
	}
	reportRefRate(b, tr)
}

func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"LU32", "JACOBI"} {
		b.Run(name, func(b *testing.B) {
			w, err := Workload(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				r := w.Reader()
				n := 0
				for {
					if _, err := r.Next(); err != nil {
						break
					}
					n++
				}
				if n == 0 {
					b.Fatal("empty generation")
				}
			}
		})
	}
}

func reportRefRate(b *testing.B, tr *Trace) {
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "refs/s")
}
