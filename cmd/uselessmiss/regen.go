package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiment"
	"repro/internal/obs/span"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// cmdRegen regenerates every paper artifact (and the extension studies)
// into one file per experiment under the output directory — the one-shot
// reproduction entry point. Progress is checkpointed in a content-hashed
// manifest after every artifact, so an interrupted run (SIGINT or
// -timeout) can continue with -resume instead of starting over.
func cmdRegen(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("regen", flag.ContinueOnError)
	dir := fs.String("o", "results", "output directory")
	quick := fs.Bool("quick", false, "substitute small data sets in the heavy runs")
	par := fs.Int("j", 0, "worker goroutines for the sweep grids (0 = GOMAXPROCS, 1 = serial)")
	keepGoing := fs.Bool("keep-going", false, "render partial artifacts with failed sweep cells marked FAILED instead of aborting (exit code 3)")
	resume := fs.Bool("resume", false, "skip artifacts whose manifest checkpoint matches the file on disk")
	traceOut := fs.String("trace-out", "", "pack every workload's trace into this directory first, then replay all artifacts out-of-core from the packed files")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration, like an interrupt (0 = no limit)")
	prof := addProfileFlags(fs)
	// -trace-out means "pack traces here" for regen, so the span trace
	// registers as -span-out instead.
	in := addObsFlagsNamed(fs, "span-out")
	if err := in.parse(fs, args); err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	cfg := regenConfig{
		dir: *dir, quick: *quick, par: *par,
		keepGoing: *keepGoing, resume: *resume, traceOut: *traceOut,
		onTraces: func(s *experiment.TraceFileSet) { in.traceManifest = s.Manifest },
	}
	return prof.around(in.around(func() error { return regenAll(ctx, cfg, out) }))
}

// regenConfig carries regen's flag values into the replay loop.
type regenConfig struct {
	dir              string
	quick, keepGoing bool
	resume           bool
	par              int
	traceOut         string
	traces           *experiment.TraceFileSet
	// onTraces, when set, is told about the packed trace set once it is
	// opened (the provenance manifest lists it).
	onTraces func(*experiment.TraceFileSet)
}

// regenArtifact is one entry of the regeneration list: the output file name
// and the experiment driver that renders it.
type regenArtifact struct {
	file string
	run  func(experiment.Options) error
}

// regenArtifacts is the full reproduction: every paper artifact and
// extension study, in replay order. A package-level var so the manifest
// tests can substitute a cheap synthetic list.
var regenArtifacts = []regenArtifact{
	{"table2.txt", experiment.Table2},
	{"table1.txt", experiment.Table1},
	{"fig5.txt", experiment.Fig5},
	{"fig6a.txt", func(o experiment.Options) error { return experiment.Fig6(o, 64) }},
	{"fig6b.txt", func(o experiment.Options) error { return experiment.Fig6(o, 1024) }},
	{"large.txt", experiment.Large},
	{"traffic.txt", experiment.Traffic},
	{"finite.txt", func(o experiment.Options) error { return experiment.FiniteSweep(o, 64, 4) }},
	{"compare.txt", func(o experiment.Options) error { return experiment.Compare(o, 64) }},
	{"penalty.txt", func(o experiment.Options) error {
		return experiment.Penalty(o, 1024, timing.DefaultModel())
	}},
	{"hotspots.txt", func(o experiment.Options) error { return experiment.Hotspots(o, 64) }},
	{"phases.txt", func(o experiment.Options) error { return experiment.Phases(o, 64, 10) }},
	{"ablate_cu.txt", func(o experiment.Options) error { return experiment.AblationCU(o, 64) }},
	{"ablate_wbwi.txt", func(o experiment.Options) error { return experiment.AblationWBWI(o, 1024) }},
	{"ablate_sector.txt", func(o experiment.Options) error { return experiment.AblationSector(o, 1024) }},
}

// regenAll replays every artifact; split out so profiling brackets exactly
// the replay work. Each artifact is written to a temp file and renamed into
// place only when its driver succeeds, then checkpointed in the manifest —
// an interrupt can never leave a truncated artifact that looks complete.
func regenAll(ctx context.Context, cfg regenConfig, out io.Writer) error {
	m := loadManifest(cfg.dir, cfg.quick)
	if cfg.traceOut != "" {
		files, err := packTraces(ctx, cfg, m, out)
		if err != nil {
			return err
		}
		defer files.Close() //nolint:errcheck // read-only handles
		cfg.traces = files
		if cfg.onTraces != nil {
			cfg.onTraces(files)
		}
	}
	// One trace cache for the whole run: each workload's trace is
	// materialized once and replayed by every artifact that wants it (when
	// -trace-out is set, the cache streams from the packed files instead).
	cache := experiment.NewTraceCache()
	partial := false
	for _, a := range regenArtifacts {
		if err := ctx.Err(); err != nil {
			return err
		}
		path := filepath.Join(cfg.dir, a.file)
		if cfg.resume && m.upToDate(cfg.dir, a.file) {
			fmt.Fprintf(out, "skipped %s (up to date)\n", path)
			continue
		}
		sp := span.Root(span.OpArtifact, span.Fields{Note: a.file})
		sum, n, err := writeArtifact(ctx, path, cfg, cache, a.run)
		sp.End()
		if errors.Is(err, experiment.ErrPartial) {
			// The partial report is on disk for inspection but is not
			// checkpointed: -resume regenerates it.
			partial = true
			fmt.Fprintf(out, "wrote %s (PARTIAL)\n", path)
			continue
		}
		if err != nil {
			return fmt.Errorf("%s: %w", a.file, err)
		}
		m.record(a.file, sum, n)
		if err := m.save(cfg.dir); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", path)
	}
	if partial {
		return fmt.Errorf("regen: %w", experiment.ErrPartial)
	}
	return nil
}

// packTraces packs every workload the run will replay (the small data sets
// under -quick, all registered workloads otherwise) into cfg.traceOut, one
// file per workload via temp file + rename, checkpointing each in the
// manifest. With -resume, a file whose size and TOC digest match its
// checkpoint is kept. The opened set is returned for the artifact replays.
func packTraces(ctx context.Context, cfg regenConfig, m *manifest, out io.Writer) (*experiment.TraceFileSet, error) {
	if err := os.MkdirAll(cfg.traceOut, 0o755); err != nil {
		return nil, err
	}
	names := workload.Names()
	if cfg.quick {
		names = workload.SmallSet()
	}
	specs := make(map[string]string, len(names))
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.traceOut, name+".umt")
		specs[name] = path
		if cfg.resume && m.traceUpToDate(path, name) {
			fmt.Fprintf(out, "skipped %s (up to date)\n", path)
			continue
		}
		w, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		sp := span.Root(span.OpPack, span.Fields{Workload: name})
		stats, err := w.PackFile(path, tracestore.WriterOptions{})
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("pack %s: %w", name, err)
		}
		m.recordTrace(name, stats)
		if err := m.save(cfg.dir); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "packed %s (%d refs, %d bytes)\n", path, stats.Refs, stats.Bytes)
	}
	return experiment.OpenTraceFiles(specs)
}

// writeArtifact renders one artifact into a temp file (hashing the bytes as
// they stream) and renames it into place unless the driver failed outright.
// A keep-going partial report is renamed too — the table is valid, just
// marked — and the ErrPartial comes back so the caller can skip the
// checkpoint. Any other error removes the temp file and leaves the final
// path untouched.
func writeArtifact(ctx context.Context, path string, cfg regenConfig,
	cache *sweep.TraceCache, run func(experiment.Options) error) (sum string, n int64, err error) {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-")
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	count := &countingWriter{w: io.MultiWriter(tmp, h)}
	o := experiment.Options{
		Out: count, Quick: cfg.quick, Parallelism: cfg.par,
		Cache: cache, Ctx: ctx, KeepGoing: cfg.keepGoing, TraceFiles: cfg.traces,
	}
	runErr := run(o)
	closeErr := tmp.Close()
	if runErr != nil && !errors.Is(runErr, experiment.ErrPartial) {
		os.Remove(tmp.Name())
		return "", 0, runErr
	}
	if closeErr != nil {
		os.Remove(tmp.Name())
		return "", 0, closeErr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), count.n, runErr
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
