package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// repoRoot is the repository root as seen from this package's directory,
// where go test runs.
const repoRoot = ".."

// copyTree copies the named files from the repository into dir.
func copyTree(t *testing.T, dir string, files ...string) {
	t.Helper()
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(repoRoot, f))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, f)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// inDir runs the rest of the test from dir.
func inDir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) }) //nolint:errcheck // best effort
	t.Setenv("TMPDIR", t.TempDir())
}

// TestCorruptedReferenceFailsTheCommand runs the benchmark command on the
// table2 driver of regen-quick, against a copy of the references: clean it
// passes; with one reference byte flipped it exits 1 and reports the
// operation failed.
func TestCorruptedReferenceFailsTheCommand(t *testing.T) {
	workloads["regen-quick-table2"] = func(b *bench) (runner, error) {
		w, err := newRegenQuick(b)
		if err != nil {
			return nil, err
		}
		w.(*regenQuick).drivers = regenDrivers[:1]
		return w, nil
	}
	t.Cleanup(func() { delete(workloads, "regen-quick-table2") })

	refs := []string{"go.mod", goldenDir + "/table1.txt", goldenDir + "/table2.txt"}
	for _, d := range regenDrivers {
		if d.name != "large" && d.name != "table1" && d.name != "table2" {
			refs = append(refs, "results/"+d.name+".txt")
		}
	}
	dir := t.TempDir()
	copyTree(t, dir, refs...)
	inDir(t, dir)
	args := []string{"--workload", "regen-quick-table2", "--seed", "1", "--seconds", "1"}

	var out, errw bytes.Buffer
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("clean references: exit %d, want 0\n%s", code, errw.String())
	}
	if res := lastLine(t, out.Bytes()); !res.Correct || res.Failed != 0 {
		t.Fatalf("clean references: %+v", res)
	}

	ref := filepath.FromSlash(goldenDir + "/table2.txt")
	data, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(ref, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errw.Reset()
	if code := run(args, &out, &errw); code != 1 {
		t.Fatalf("corrupted reference: exit %d, want 1", code)
	}
	res := lastLine(t, out.Bytes())
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("corrupted reference: %+v, want every table2 render failed", res)
	}
	if !strings.Contains(errw.String(), "differs from its reference") {
		t.Fatalf("no mismatch reported:\n%s", errw.String())
	}
}

func lastLine(t *testing.T, out []byte) *result {
	t.Helper()
	r, err := lastResult(out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	return r
}

// TestEveryReferenceByteIsChecked flips one byte in each reference the
// batch workloads compare against and expects the comparison to fail.
func TestEveryReferenceByteIsChecked(t *testing.T) {
	paths := []string{goldenDir + "/table1.txt", goldenDir + "/table2.txt", "results/large.txt"}
	for _, d := range regenDrivers {
		if d.name != "large" && d.name != "table1" && d.name != "table2" {
			paths = append(paths, "results/"+d.name+".txt")
		}
	}
	for _, p := range paths {
		want, err := os.ReadFile(filepath.Join(repoRoot, p))
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []int{0, len(want) / 2, len(want) - 1} {
			bad := bytes.Clone(want)
			bad[at] ^= 0x20
			if compareOutput(want, bad) == nil {
				t.Errorf("%s: a flipped byte at %d passed the check", p, at)
			}
		}
	}
	if sha256Hex([]byte("x")) == quickLargeSHA256 {
		t.Fatal("pinned digest matches arbitrary bytes")
	}
}

func TestDropRowsRemovesOnlyTheNamedWorkload(t *testing.T) {
	large, err := os.ReadFile(filepath.Join(repoRoot, "results/large.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := string(dropRows(large, "WATER288"))
	if strings.Contains(got, "WATER288") {
		t.Fatal("WATER288 rows survived")
	}
	if want := strings.Count(string(large), "\n") - 14; strings.Count(got, "\n") != want {
		t.Fatalf("%d lines left, want %d (14 WATER288 rows dropped)", strings.Count(got, "\n"), want)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, the metric
// catalogues and the workload registry in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	def, err := readBenchmarkDef(filepath.Join(repoRoot, benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in %s, %d in the catalogue", kind, len(got), benchmarkFile, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: %s lists %v, the catalogue %v", kind, i, benchmarkFile, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range def.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range def.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, e2eCatalogue)
	check("per_layer", layer, layerCatalogue)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("%s workloads %s, registry %s", benchmarkFile, got, want)
	}
}
