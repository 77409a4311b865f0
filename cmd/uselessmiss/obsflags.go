package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/obs/span"
)

// instruments carries the observability flag values shared by the
// experiment subcommands and regen: where to write the run-metrics JSON,
// whether to render the live progress line, the slog level, and the
// flight-recorder outputs — the span trace, the span log and the
// provenance manifest.
type instruments struct {
	metricsPath    string
	progress       bool
	logLevel       string
	traceOutPath   string
	spanLogPath    string
	provenancePath string

	// argv is the subcommand name plus its raw arguments, captured by
	// parse for the provenance manifest.
	argv []string
	// traceManifest, when set, lists the packed trace files the run
	// replayed from, for the provenance manifest.
	traceManifest func() []experiment.TraceFileInfo
}

// addObsFlags registers the observability flags on fs.
func addObsFlags(fs *flag.FlagSet) *instruments { return addObsFlagsNamed(fs, "trace-out") }

// addObsFlagsNamed is addObsFlags with a custom name for the span-trace
// flag: regen's -trace-out already means "pack the workload traces here",
// so it registers the span trace under -span-out instead.
func addObsFlagsNamed(fs *flag.FlagSet, traceOutFlag string) *instruments {
	in := &instruments{}
	fs.StringVar(&in.metricsPath, "metrics", "", "write this run's metrics delta as a JSON report to this file")
	fs.BoolVar(&in.progress, "progress", false, "render a live progress line on stderr")
	fs.StringVar(&in.logLevel, "log", "warn", "slog level: debug, info, warn or error")
	fs.StringVar(&in.traceOutPath, traceOutFlag, "", "record execution spans and write a Chrome trace_event JSON trace (load in Perfetto) to this file")
	fs.StringVar(&in.spanLogPath, "span-log", "", "record execution spans and write them as compact JSONL to this file")
	fs.StringVar(&in.provenancePath, "provenance", "", "write a run-provenance manifest (argv, environment, inputs, outcome) as JSON to this file")
	return in
}

// parse captures the subcommand's argv for the provenance manifest, then
// parses the flags.
func (in *instruments) parse(fs *flag.FlagSet, args []string) error {
	in.argv = append([]string{fs.Name()}, args...)
	return fs.Parse(args)
}

// parseLevel maps the -log flag value to a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
	}
}

// around wraps fn with the instrumentation lifecycle: slog setup, span
// recording, the progress line, the run timer, and — after fn returns —
// the metrics report, the span exports and the provenance manifest.
// Everything it prints goes to stderr or to the flag-named files, never to
// the experiment's Out writer, so report bytes are untouched. The run
// error wins over reporting errors.
func (in *instruments) around(fn func() error) func() error {
	return func() error {
		level, err := parseLevel(in.logLevel)
		if err != nil {
			return err
		}
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))

		if in.traceOutPath != "" || in.spanLogPath != "" {
			span.StartRecording(0)
		}

		start := time.Now()
		before := obs.Default.Report()
		timer := obs.StartRunTimer(obs.Default)
		var prog *obs.Progress
		if in.progress {
			prog = obs.StartProgress(os.Stderr, obs.Default, 0)
		}

		runErr := fn()

		elapsed := timer.Stop()
		if prog != nil {
			prog.Stop()
		}
		delta := obs.Delta(before, obs.Default.Report())
		slog.Info("run finished", "elapsed", elapsed, "report", delta.String())

		if in.metricsPath != "" {
			if err := in.writeReport(delta); err != nil && runErr == nil {
				runErr = err
			}
		}
		if err := in.exportSpans(); err != nil && runErr == nil {
			runErr = err
		}
		if in.provenancePath != "" {
			if err := in.writeProvenance(start, elapsed, delta, runErr); err != nil && runErr == nil {
				runErr = err
			}
		}
		return runErr
	}
}

// exportSpans stops the recorder and writes the trace_event and JSONL
// exports. Every pipeline goroutine (sweep workers, readahead decoders) is
// joined before the experiment returns, so all tracks are released by the
// time this runs.
func (in *instruments) exportSpans() error {
	if in.traceOutPath == "" && in.spanLogPath == "" {
		return nil
	}
	snap := span.StopRecording()
	if snap == nil {
		return nil
	}
	if in.traceOutPath != "" {
		if err := writeFileWith(in.traceOutPath, snap.WriteTraceEvent); err != nil {
			return fmt.Errorf("writing span trace: %w", err)
		}
		slog.Info("span trace written", "path", in.traceOutPath, "spans", snap.Summary())
	}
	if in.spanLogPath != "" {
		if err := writeFileWith(in.spanLogPath, snap.WriteJSONL); err != nil {
			return fmt.Errorf("writing span log: %w", err)
		}
		slog.Info("span log written", "path", in.spanLogPath)
	}
	return nil
}

// writeFileWith creates path and streams write's output into it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	return err
}

// writeReport writes the delta report to the -metrics file.
func (in *instruments) writeReport(rep obs.RunReport) error {
	err := writeFileWith(in.metricsPath, rep.WriteJSON)
	if err != nil {
		return fmt.Errorf("writing metrics report: %w", err)
	}
	slog.Debug("metrics report written", "path", in.metricsPath)
	return nil
}
