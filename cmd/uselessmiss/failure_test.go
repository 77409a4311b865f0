package main

// End-to-end tests for the failure model: exit-code mapping, -timeout
// expiry, and an interrupted regen leaving only complete artifacts.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/serve"
)

// TestExitCode pins the process exit-code contract: 0 ok, 1 error,
// 3 forced serve drain, 130 interrupted — and cancellation outranks a
// forced drain.
func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, exitOK},
		{"plain", errors.New("boom"), exitErr},
		{"canceled", context.Canceled, exitInterrupted},
		{"deadline", context.DeadlineExceeded, exitInterrupted},
		{"wrapped canceled", fmt.Errorf("regen: %w", context.Canceled), exitInterrupted},
		{"forced drain", serve.ErrDrainForced, exitDrainForced},
		{"wrapped forced drain", fmt.Errorf("%w (2 jobs force-canceled)", serve.ErrDrainForced), exitDrainForced},
		{"canceled outranks forced drain",
			fmt.Errorf("%w: %w", context.Canceled, serve.ErrDrainForced), exitInterrupted},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("%s: exitCode = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestTimeoutExpires: -timeout behaves like an interrupt — the run aborts
// with context.DeadlineExceeded, which maps to the interrupted exit code.
func TestTimeoutExpires(t *testing.T) {
	for _, args := range [][]string{
		{"table1", "-quick", "-workloads", "LU32", "-timeout", "1ns"},
		{"regen", "-quick", "-o", t.TempDir(), "-timeout", "1ns"},
	} {
		var sb strings.Builder
		err := run(args, &sb)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%v: err = %v, want DeadlineExceeded", args, err)
		}
		if code := exitCode(err); code != exitInterrupted {
			t.Errorf("%v: exit code = %d, want %d", args, code, exitInterrupted)
		}
	}
}

// cancelOnWrote cancels a context the first time a "wrote " progress line
// passes through it — a deterministic stand-in for SIGINT arriving between
// regen artifacts.
type cancelOnWrote struct {
	w      io.Writer
	cancel context.CancelFunc
}

func (c *cancelOnWrote) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if bytes.Contains(p, []byte("wrote ")) {
		c.cancel()
	}
	return n, err
}

// TestRegenInterruptLeavesCompleteArtifacts: a regen interrupted after its
// first artifact returns context.Canceled and leaves exactly that artifact
// behind, byte-identical to its driver's own output, and no temp file; an
// artifact whose driver is cut short mid-write leaves nothing at all.
func TestRegenInterruptLeavesCompleteArtifacts(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var progress strings.Builder
	err := runContext(ctx, []string{"regen", "-quick", "-o", dir},
		&cancelOnWrote{w: &progress, cancel: cancel})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted regen: err = %v, want context.Canceled\n%s", err, progress.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := regenArtifacts[0]
	if len(entries) != 1 || entries[0].Name() != first.file {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("interrupted regen left %v, want exactly [%s]", names, first.file)
	}
	got, err := os.ReadFile(filepath.Join(dir, first.file))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := first.run(experiment.Options{Out: &want, Quick: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("%s differs from its driver's output:\n%s\nvs\n%s", first.file, got, want.Bytes())
	}

	cut := t.TempDir()
	err = writeArtifact(context.Background(), filepath.Join(cut, "cut.txt"), regenConfig{}, nil,
		func(o experiment.Options) error {
			fmt.Fprintln(o.Out, "half a table")
			return context.Canceled
		})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cut-short artifact: err = %v, want context.Canceled", err)
	}
	if entries, err := os.ReadDir(cut); err != nil || len(entries) != 0 {
		t.Errorf("cut-short artifact left %v (%v), want an empty directory", entries, err)
	}
}
