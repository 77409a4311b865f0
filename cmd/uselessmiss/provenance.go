package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// ProvenanceSchema identifies the run-provenance manifest layout.
const ProvenanceSchema = "uselessmiss/provenance/v1"

// provenanceManifest records where a run's numbers came from: the exact
// invocation, the toolchain and host shape, the packed trace inputs (with
// their content digests), the outcome and the metrics delta. One file per
// run, written by -provenance after the run finishes.
type provenanceManifest struct {
	Schema      string   `json:"schema"`
	Argv        []string `json:"argv"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	StartTime   string   `json:"start_time"`
	WallSeconds float64  `json:"wall_seconds"`
	RefsPerSec  float64  `json:"refs_per_sec"`
	// ExitStatus is the exit code the run error maps to (0 ok, 1 error,
	// 3 forced serve drain, 130 interrupted); Error holds the message when
	// non-zero.
	ExitStatus int    `json:"exit_status"`
	Error      string `json:"error,omitempty"`
	// TraceFiles lists the packed trace inputs with their TOC digests;
	// empty when the workloads were regenerated in-process.
	TraceFiles []experiment.TraceFileInfo `json:"trace_files,omitempty"`
	// Metrics is the run's metrics delta (what -metrics reports).
	Metrics obs.RunReport `json:"metrics"`
}

// writeProvenance renders the provenance manifest for a finished run.
func (in *instruments) writeProvenance(start time.Time, elapsed time.Duration, delta obs.RunReport, runErr error) error {
	m := provenanceManifest{
		Schema:      ProvenanceSchema,
		Argv:        in.argv,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		StartTime:   start.UTC().Format(time.RFC3339Nano),
		WallSeconds: elapsed.Seconds(),
		RefsPerSec:  delta.Timings.Gauges[obs.NameRunRefsPerSec],
		ExitStatus:  exitCodeFor(runErr),
		Metrics:     delta,
	}
	if runErr != nil {
		m.Error = runErr.Error()
	}
	if in.traceManifest != nil {
		m.TraceFiles = in.traceManifest()
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(in.provenancePath, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing provenance manifest: %w", err)
	}
	slog.Debug("provenance manifest written", "path", in.provenancePath)
	return nil
}
