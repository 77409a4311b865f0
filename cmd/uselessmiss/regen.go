package main

import (
	"context"
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
// reproduction entry point. Each artifact lands through a temp file and a
// rename, so an interrupted run (SIGINT or -timeout) leaves only complete
// artifacts behind; every replay is deterministic, so rerunning regen is
// how an interrupted run finishes.
func cmdRegen(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("regen", flag.ContinueOnError)
	dir := fs.String("o", "results", "output directory")
	quick := fs.Bool("quick", false, "substitute small data sets in the heavy runs")
	par := fs.Int("j", 0, "worker goroutines for the sweep grids (0 = GOMAXPROCS, 1 = serial)")
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
		dir: *dir, quick: *quick, par: *par, traceOut: *traceOut,
		onTraces: func(s *experiment.TraceFileSet) { in.traceManifest = s.Manifest },
	}
	return prof.around(in.around(func() error { return regenAll(ctx, cfg, out) }))
}

// regenConfig carries regen's flag values into the replay loop.
type regenConfig struct {
	dir      string
	quick    bool
	par      int
	traceOut string
	traces   *experiment.TraceFileSet
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
// extension study, in replay order.
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
// the replay work. The first failing artifact, or an interrupt, stops the
// run.
func regenAll(ctx context.Context, cfg regenConfig, out io.Writer) error {
	if cfg.traceOut != "" {
		files, err := packTraces(ctx, cfg, out)
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
	// materialized once and replayed by every artifact that wants it (a
	// workload packed under -trace-out replays from its file instead).
	cache := experiment.NewTraceCache()
	for _, a := range regenArtifacts {
		if err := ctx.Err(); err != nil {
			return err
		}
		path := filepath.Join(cfg.dir, a.file)
		sp := span.Root(span.OpArtifact, span.Fields{Note: a.file})
		err := writeArtifact(ctx, path, cfg, cache, a.run)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", a.file, err)
		}
		fmt.Fprintf(out, "wrote %s\n", path)
	}
	return nil
}

// packTraces packs every workload the run will replay (the small data sets
// under -quick, all registered workloads otherwise) into cfg.traceOut, one
// file per workload via temp file + rename. The opened set is returned for
// the artifact replays.
func packTraces(ctx context.Context, cfg regenConfig, out io.Writer) (*experiment.TraceFileSet, error) {
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
		fmt.Fprintf(out, "packed %s (%d refs, %d bytes)\n", path, stats.Refs, stats.Bytes)
	}
	return experiment.OpenTraceFiles(specs)
}

// writeArtifact renders one artifact into a temp file and renames it into
// place only when the driver succeeds. On any error the temp file is
// removed and the final path is left untouched, so an interrupt can never
// leave a truncated artifact that looks complete.
func writeArtifact(ctx context.Context, path string, cfg regenConfig,
	cache *sweep.TraceCache, run func(experiment.Options) error) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-")
	if err != nil {
		return err
	}
	err = run(experiment.Options{
		Out: tmp, Quick: cfg.quick, Parallelism: cfg.par,
		Cache: cache, Ctx: ctx, TraceFiles: cfg.traces,
	})
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
