package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDispatch(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Error("missing subcommand accepted")
	}
	// tracegen and traceinfo went with the stream codec; load went with
	// its generator package (e2ebench's serve-mix is the one kept).
	for _, cmd := range []string{"nope", "tracegen", "traceinfo", "load"} {
		err := run([]string{cmd}, &sb)
		if err == nil || !strings.Contains(err.Error(), "unknown subcommand") || exitCode(err) != exitErr {
			t.Errorf("%s: err = %v, want an unknown subcommand (exit %d)", cmd, err, exitErr)
		}
	}
}

func TestList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"JACOBI", "LU32", "MP3D10000", "WATER288"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("list missing %s", want)
		}
	}
}

func TestClassifyWorkload(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"classify", "-workload", "LU32", "-block", "64"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"ours", "eggers", "torrellas", "PTS", "essential", "TSM"} {
		if !strings.Contains(out, want) {
			t.Errorf("classify missing %q:\n%s", want, out)
		}
	}
}

func TestClassifySingleScheme(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"classify", "-workload", "LU32", "-scheme", "eggers"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "torrellas") {
		t.Error("scheme filter ignored")
	}
}

func TestClassifyErrors(t *testing.T) {
	var sb strings.Builder
	cases := [][]string{
		{"classify"},                   // no source
		{"classify", "-workload", "X"}, // unknown workload
		{"classify", "-workload", "LU32", "-block", "3"},  // bad block
		{"classify", "-workload", "LU32", "-scheme", "x"}, // bad scheme
		{"classify", "-workload", "LU32", "-trace", "f"},  // both sources
		{"classify", "-trace", "/no/such/file"},
	}
	for _, args := range cases {
		if err := run(args, &sb); err == nil {
			t.Errorf("%v: expected error", args)
		}
	}
}

func TestProtocolsWorkload(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"protocols", "-workload", "LU32", "-block", "64", "-protocols", "MIN,OTF"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "MIN") || !strings.Contains(out, "OTF") {
		t.Errorf("protocols output:\n%s", out)
	}
	if strings.Contains(out, "MAX") {
		t.Error("protocol filter ignored")
	}
}

func TestProtocolsUnknownProtocol(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"protocols", "-workload", "LU32", "-protocols", "BOGUS"}, &sb)
	if err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestTracePackInfoAndFileClassify: a trace packed with 'trace pack' is
// summarized by 'trace info' and classifies like the workload it came
// from.
func TestTracePackInfoAndFileClassify(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lu32.umt")
	var sb strings.Builder
	if err := run([]string{"trace", "pack", "-workload", "LU32", "-o", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "packed LU32") {
		t.Errorf("trace pack output: %s", sb.String())
	}

	sb.Reset()
	if err := run([]string{"trace", "info", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"processors", "16", "data refs", "side refs", "toc sha256"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace info missing %q:\n%s", want, out)
		}
	}

	// Classifying the file must agree with classifying the workload.
	sb.Reset()
	if err := run([]string{"classify", "-trace", path, "-block", "64", "-scheme", "ours"}, &sb); err != nil {
		t.Fatal(err)
	}
	fromFile := sb.String()
	sb.Reset()
	if err := run([]string{"classify", "-workload", "LU32", "-block", "64", "-scheme", "ours"}, &sb); err != nil {
		t.Fatal(err)
	}
	if fromFile != sb.String() {
		t.Errorf("file and workload classification differ:\n%s\nvs\n%s", fromFile, sb.String())
	}

	// And protocol simulation over the file works too.
	sb.Reset()
	if err := run([]string{"protocols", "-trace", path, "-protocols", "MIN"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "MIN") {
		t.Error("protocols over trace file failed")
	}
}

// TestTraceCatTextFormat: 'trace cat' prints a packed file as text, needs
// -o, and has no -format.
func TestTraceCatTextFormat(t *testing.T) {
	dir := t.TempDir()
	packed := filepath.Join(dir, "lu32.umt")
	path := filepath.Join(dir, "t.txt")
	var sb strings.Builder
	if err := run([]string{"trace", "pack", "-workload", "LU32", "-o", packed}, &sb); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"trace", "cat", "-o", path, packed}, &sb); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(text), "procs 16\nP0 LD 0\n") {
		t.Errorf("trace cat output starts %q, want the text format", text[:min(len(text), 40)])
	}
	if err := run([]string{"trace", "cat", packed}, &sb); err == nil {
		t.Error("missing -o accepted")
	}
	if err := run([]string{"trace", "cat", "-o", path, "-format", "text", packed}, &sb); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -format") {
		t.Errorf("trace cat -format: err = %v, want a flag error", err)
	}
}

// TestTraceInfoErrors: 'trace info' needs a file, and an existing one.
func TestTraceInfoErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"trace", "info"}, &sb); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"trace", "info", "/no/such/file"}, &sb); err == nil {
		t.Error("missing file accepted")
	}
}

func TestExperimentSubcommands(t *testing.T) {
	for _, args := range [][]string{
		{"table1", "-quick", "-workloads", "LU32"},
		{"table2", "-quick", "-workloads", "LU32"},
		{"fig5", "-workloads", "LU32", "-blocks", "8,64"},
		{"fig6", "-workloads", "LU32", "-block", "64", "-protocols", "MIN,OTF"},
		{"large", "-quick", "-workloads", "LU32", "-protocols", "MIN,OTF"},
		{"traffic", "-workloads", "LU32", "-protocols", "MIN,WU,CU"},
		{"finite", "-workloads", "LU32", "-block", "64", "-assoc", "2"},
		{"ablate", "-what", "cu", "-workloads", "LU32"},
		{"ablate", "-what", "wbwi", "-workloads", "LU32", "-block", "1024"},
		{"compare", "-workloads", "LU32", "-block", "64"},
		{"ablate", "-what", "sector", "-workloads", "LU32", "-block", "1024"},
		{"penalty", "-workloads", "LU32", "-protocols", "MIN,OTF", "-miss-penalty", "50"},
		{"hotspots", "-workloads", "LU32", "-block", "8"},
		{"phases", "-workloads", "LU32", "-buckets", "4"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err != nil {
			t.Errorf("%v: %v", args, err)
		}
		if sb.Len() == 0 {
			t.Errorf("%v: no output", args)
		}
	}
}

func TestSelfcheck(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"selfcheck", "-workload", "LU32", "-block", "64"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "all identities hold") || strings.Contains(out, "FAIL") {
		t.Errorf("selfcheck output:\n%s", out)
	}
	// And against a packed trace file.
	dir := t.TempDir()
	path := filepath.Join(dir, "t.umt")
	if err := run([]string{"trace", "pack", "-workload", "LU32", "-o", path}, &sb); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := run([]string{"selfcheck", "-trace", path, "-block", "8"}, &sb); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if err := run([]string{"selfcheck"}, &sb); err == nil {
		t.Error("missing source accepted")
	}
	if err := run([]string{"selfcheck", "-workload", "LU32", "-block", "7"}, &sb); err == nil {
		t.Error("bad block accepted")
	}
}

func TestRegenQuick(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"regen", "-quick", "-o", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1.txt", "fig6a.txt", "phases.txt", "ablate_sector.txt"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing artifact %s: %v", want, err)
		}
	}
	if !strings.Contains(sb.String(), "wrote") {
		t.Error("no progress output")
	}
}

func TestAblateUnknownWhat(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"ablate", "-what", "bogus"}, &sb); err == nil {
		t.Error("unknown ablation accepted")
	}
}

func TestProtocolsExtensionNames(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"protocols", "-workload", "LU32", "-protocols", "WU,CU"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "WU") || !strings.Contains(sb.String(), "CU") {
		t.Errorf("extension protocols missing:\n%s", sb.String())
	}
}

func TestFig5BadBlocksFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"fig5", "-workloads", "LU32", "-blocks", "8,x"}, &sb); err == nil {
		t.Error("bad -blocks accepted")
	}
}

func TestSplitHelpers(t *testing.T) {
	if got := splitList(""); got != nil {
		t.Errorf("splitList(\"\") = %v", got)
	}
	got := splitList(" a, b ,c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("splitList = %v", got)
	}
	ints, err := splitInts("4, 8")
	if err != nil || len(ints) != 2 || ints[0] != 4 || ints[1] != 8 {
		t.Errorf("splitInts = %v, %v", ints, err)
	}
}
