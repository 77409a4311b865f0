package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// runJob executes one admitted job on a worker: a deadline from the spec
// (capped by the server), one run, and typed classification of whatever
// comes out. The output is a pure function of (spec, trace, version), so a
// failed run would fail identically again; nothing is retried.
func (s *Server) runJob(j *job) {
	// Clamp in milliseconds before converting: a huge timeout_ms would
	// overflow time.Duration into a negative, already-expired deadline.
	timeout := s.cfg.JobTimeout
	if ms := j.spec.TimeoutMs; ms > 0 {
		timeout = s.cfg.MaxJobTimeout
		if ms < timeout.Milliseconds() {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	ctx, cancel := context.WithTimeout(j.ctx, min(timeout, s.cfg.MaxJobTimeout))
	defer cancel()

	if err := s.run(ctx, j); err != nil {
		j.err = s.classify(j, err)
	}
}

// run executes the job body, converting a panic anywhere under the replay
// into an error so the worker survives.
func (s *Server) run(ctx context.Context, j *job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			mPanics.Inc()
			err = fmt.Errorf("%w: recovered panic: %v", errPanic, r)
		}
	}()

	o := experiment.Options{
		Out:         &j.out,
		CSV:         j.spec.CSV,
		Quick:       j.spec.Quick,
		Workloads:   j.spec.Workloads,
		Protocols:   j.spec.Protocols,
		Blocks:      j.spec.Blocks,
		Parallelism: j.spec.Parallelism,
		Shards:      j.spec.Shards,
		Ctx:         ctx,
		Cache:       s.cache,
	}
	switch {
	case j.traceBytes != nil:
		r, openErr := openTraceBytes(j.traceBytes)
		if openErr != nil {
			return fmt.Errorf("%w: %w", errBadTrace, openErr)
		}
		return experiment.ClassifyReader(o, s.wrap(r), j.spec.Block, j.spec.Scheme)
	case j.spec.Experiment == "classify":
		w, getErr := workload.Get(j.spec.Workload)
		if getErr != nil {
			return fmt.Errorf("%w: %w", errBadTrace, getErr)
		}
		return experiment.ClassifyReader(o, s.wrap(w.Reader()), j.spec.Block, j.spec.Scheme)
	default:
		return experiment.RunNamed(j.spec.Experiment, o, j.spec.Block)
	}
}

// wrap applies the test-only reader hook, if set.
func (s *Server) wrap(r trace.Reader) trace.Reader {
	if s.cfg.wrap == nil {
		return r
	}
	return s.cfg.wrap(r)
}

// Internal sentinels run uses to smuggle a classification through the
// error return; classify maps them onto codes.
var (
	errPanic    = errors.New("serve: job panicked")
	errBadTrace = errors.New("serve: invalid job input")
)

// classify maps a failed job's error onto its typed JobError.
func (s *Server) classify(j *job, err error) *JobError {
	je := &JobError{Job: j.id, Tenant: j.spec.tenant(), Err: err}
	switch {
	case errors.Is(err, errBadTrace):
		je.Code = CodeBadRequest
	case errors.Is(err, experiment.ErrUnknownJob):
		je.Code = CodeUnknown
	case errors.Is(err, context.DeadlineExceeded):
		je.Code = CodeTimeout
	case errors.Is(err, context.Canceled):
		je.Code = CodeCanceled
	case errors.Is(err, fault.ErrInjected):
		je.Code = CodeFault
	case errors.Is(err, errPanic):
		je.Code = CodePanic
	default:
		je.Code = CodeInternal
	}
	return je
}

// openTraceBytes opens an uploaded trace body: the packed store format
// (sniffed by magic; spooled to a temp file because the store reader needs
// random access) or the v2 binary codec (decoded in place).
func openTraceBytes(b []byte) (trace.Reader, error) {
	if len(b) >= len(tracestore.Magic) && string(b[:len(tracestore.Magic)]) == tracestore.Magic {
		f, err := os.CreateTemp("", "uselessmiss-job-*.umtrace")
		if err != nil {
			return nil, err
		}
		path := f.Name()
		if _, err := f.Write(b); err != nil {
			f.Close()
			os.Remove(path)
			return nil, err
		}
		if err := f.Close(); err != nil {
			os.Remove(path)
			return nil, err
		}
		r, err := tracestore.OpenReader(path)
		if err != nil {
			os.Remove(path)
			return nil, err
		}
		return &unlinkingReader{Reader: r, path: path}, nil
	}
	dec, err := trace.NewDecoder(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return dec, nil
}

// unlinkingReader removes the spooled temp file when the stream closes.
type unlinkingReader struct {
	*tracestore.Reader
	path string
}

func (r *unlinkingReader) Close() error {
	err := r.Reader.Close()
	if rmErr := os.Remove(r.path); err == nil {
		err = rmErr
	}
	return err
}
