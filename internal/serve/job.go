package serve

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/coherence"
	"repro/internal/experiment"
	"repro/internal/mem"
	"repro/internal/workload"
)

// JobSpec is the JSON body of a submitted job. Zero values mean "the
// experiment's default", matching the CLI flags field for field so a spec
// and the equivalent command line render byte-identical tables.
type JobSpec struct {
	// Tenant identifies the submitting client for admission caps; empty
	// means the shared "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Experiment names the driver to run: one of experiment.JobKinds, or
	// "classify" for a single-workload classification table.
	Experiment string `json:"experiment"`
	// Workload names the trace-generator workload for classify jobs (and
	// overrides the experiment's workload list when set on driver jobs).
	Workload string `json:"workload,omitempty"`
	// Workloads overrides a driver job's workload list.
	Workloads []string `json:"workloads,omitempty"`
	// Block is the single block size for the experiments that take one
	// (classify, fig6, compare, hotspots, phases, finite); 0 keeps each
	// experiment's paper default.
	Block int `json:"block,omitempty"`
	// Blocks overrides fig5's block-size sweep. Block sizes are
	// power-of-two byte counts of at least one word.
	Blocks []int `json:"blocks,omitempty"`
	// Scheme picks the classify table's scheme: ours, eggers, torrellas
	// or all (the default).
	Scheme string `json:"scheme,omitempty"`
	// Protocols overrides the protocol list for fig6/large/traffic.
	Protocols []string `json:"protocols,omitempty"`
	// Quick substitutes the small data sets in the heavy experiments.
	Quick bool `json:"quick,omitempty"`
	// CSV renders machine-readable CSV instead of aligned tables.
	CSV bool `json:"csv,omitempty"`
	// Parallelism bounds the sweep worker pool (the CLI's -j); clamped
	// to the server's MaxParallelism.
	Parallelism int `json:"parallelism,omitempty"`
	// TimeoutMs caps the job's run time in milliseconds; 0 takes the
	// server default, and the server's MaxJobTimeout caps it either way.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

func (s *JobSpec) tenant() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}

// validate normalizes the spec and rejects what can be rejected before
// admission: unknown experiments, workloads and protocols (404),
// nonsensical parameters such as a block size no geometry accepts (400).
// maxPar is the server's parallelism clamp; hasTrace marks an
// uploaded-trace job, whose classify needs no workload.
func (s *JobSpec) validate(maxPar int, hasTrace bool) *JobError {
	reject := func(code Code, format string, args ...any) *JobError {
		return &JobError{Code: code, Tenant: s.tenant(), Err: fmt.Errorf(format, args...)}
	}
	if s.Experiment == "" {
		return reject(CodeBadRequest, "spec missing experiment")
	}
	if s.Block < 0 || s.Parallelism < 0 || s.TimeoutMs < 0 {
		return reject(CodeBadRequest, "negative block/parallelism/timeout")
	}
	// Check block sizes now: one no geometry accepts would otherwise fail
	// inside the driver, after queueing, as an internal error. Block 0
	// keeps the experiment's default.
	blocks := s.Blocks
	if s.Block != 0 {
		blocks = append([]int{s.Block}, s.Blocks...)
	}
	for _, b := range blocks {
		if _, err := mem.NewGeometry(b); err != nil {
			return reject(CodeBadRequest, "bad block size: %v", err)
		}
	}
	if s.Parallelism > maxPar {
		s.Parallelism = maxPar
	}
	if s.Experiment == "classify" {
		if s.Workload == "" && !hasTrace {
			return reject(CodeBadRequest, "classify spec missing workload")
		}
		if s.Scheme == "" {
			s.Scheme = "all"
		}
		switch s.Scheme {
		case "ours", "eggers", "torrellas", "all":
		default:
			return reject(CodeBadRequest, "unknown scheme %q", s.Scheme)
		}
		if s.Block == 0 {
			s.Block = 64
		}
	} else {
		known := false
		for _, k := range experiment.JobKinds {
			if k == s.Experiment {
				known = true
				break
			}
		}
		if !known {
			return reject(CodeUnknown, "unknown experiment %q", s.Experiment)
		}
		if s.Workload != "" && len(s.Workloads) == 0 {
			s.Workloads = []string{s.Workload}
		}
	}
	// Resolve workload and protocol names now so a typo is a 404 at
	// submission, not a failed job after queueing.
	for _, name := range append(append([]string{}, s.Workloads...), s.Workload) {
		if name == "" {
			continue
		}
		if _, err := workload.Get(name); err != nil {
			return reject(CodeUnknown, "unknown workload %q", name)
		}
	}
	for _, name := range s.Protocols {
		if _, err := coherence.New(name, workload.DefaultProcs, mem.MustGeometry(mem.WordBytes)); err != nil {
			return reject(CodeUnknown, "unknown protocol %q", name)
		}
	}
	return nil
}

// job is one admitted unit of work flowing from the handler through the
// queue to a worker and back.
type job struct {
	id   uint64
	spec JobSpec
	// traceBytes, when non-nil, holds an uploaded packed trace body;
	// the job classifies it in place instead of a generated workload.
	traceBytes []byte

	ctx    context.Context
	cancel context.CancelFunc

	out   bytes.Buffer
	err   *JobError
	start time.Time
	done  chan struct{}
}
