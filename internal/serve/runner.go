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
// (capped by the server), a retry loop with seeded jittered backoff around
// transient trace faults, and typed classification of whatever comes out.
// The job's breaker verdict is recorded here; admission already held the
// circuits open.
func (s *Server) runJob(j *job) {
	timeout := s.cfg.JobTimeout
	if j.spec.TimeoutMs > 0 {
		timeout = time.Duration(j.spec.TimeoutMs) * time.Millisecond
	}
	if timeout > s.cfg.MaxJobTimeout {
		timeout = s.cfg.MaxJobTimeout
	}
	ctx, cancel := context.WithTimeout(j.ctx, timeout)
	defer cancel()

	var err error
	for attempt := 1; ; attempt++ {
		j.attempts = attempt
		j.out.Reset()
		err = s.attempt(ctx, j, attempt)
		if err == nil || attempt > s.cfg.RetryMax || !transient(err) {
			break
		}
		// Transient fault with retry budget left: back off with a
		// seeded jitter so synchronized failures don't retry in
		// lockstep, then go again.
		mRetries.Inc()
		s.retries.Add(1)
		backoff := s.cfg.RetryBase << (attempt - 1)
		backoff += time.Duration(mix(s.cfg.Seed, j.id, uint64(attempt)) % uint64(s.cfg.RetryBase))
		if err := s.sleep(ctx, backoff); err != nil {
			break
		}
	}
	if err != nil {
		j.err = s.classify(j, err)
	}

	keys := j.breakerKeys()
	switch {
	case j.err == nil:
		s.brk.successAll(keys...)
	case breakerRelevant(j.err.Code):
		if opened := s.brk.failureAll(keys...); len(opened) > 0 {
			mBreaker.Add(uint64(len(opened)))
		}
	default:
		// No verdict (client went away, bad input surfaced late):
		// release any half-open probe slot without moving the circuit.
		s.brk.forgiveAll(keys...)
	}
}

// attempt runs the job body once, converting a panic anywhere under the
// replay into an error so the worker survives. The fault plan, when armed
// for this attempt's seed, wraps every trace the attempt reads.
func (s *Server) attempt(ctx context.Context, j *job, attempt int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			mPanics.Inc()
			err = fmt.Errorf("%w: recovered panic: %v", errPanic, r)
		}
	}()

	seed := int64(mix(s.cfg.Seed, j.id, uint64(attempt)))
	chaos := s.cfg.Chaos != nil && s.cfg.Chaos.Fires(seed)
	wrap := func(r trace.Reader) trace.Reader { return r }
	if chaos {
		wrap = func(r trace.Reader) trace.Reader { return s.cfg.Chaos.Wrap(r, seed) }
	}

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
	}
	if chaos {
		// A faulted attempt gets a private cache so a materialized
		// faulted stream can never poison clean runs (or later
		// attempts of this job).
		o.Cache = experiment.NewWrappedTraceCache(wrap)
	} else {
		o.Cache = s.cache
	}

	switch {
	case j.traceBytes != nil:
		r, openErr := openTraceBytes(j.traceBytes)
		if openErr != nil {
			return fmt.Errorf("%w: %w", errBadTrace, openErr)
		}
		return experiment.ClassifyReader(o, wrap(r), j.spec.Block, j.spec.Scheme)
	case j.spec.Experiment == "classify":
		w, getErr := workload.Get(j.spec.Workload)
		if getErr != nil {
			return fmt.Errorf("%w: %w", errBadTrace, getErr)
		}
		return experiment.ClassifyReader(o, wrap(w.Reader()), j.spec.Block, j.spec.Scheme)
	default:
		return experiment.RunNamed(j.spec.Experiment, o, j.spec.Block)
	}
}

// Internal sentinels attempt uses to smuggle a classification through the
// error return; classify maps them onto codes.
var (
	errPanic    = errors.New("serve: job panicked")
	errBadTrace = errors.New("serve: invalid job input")
)

// transient reports whether a retry of the same attempt can succeed:
// injected/stream faults are transient; everything else (panics, client
// errors, deadlines) is not.
func transient(err error) bool {
	return errors.Is(err, fault.ErrInjected)
}

// classify maps a failed job's final error onto its typed JobError.
func (s *Server) classify(j *job, err error) *JobError {
	je := &JobError{Job: j.id, Tenant: j.spec.tenant(), Attempts: j.attempts, Err: err}
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

// breakerRelevant reports whether a failure code counts against the job's
// circuits. Client errors and load-shedding don't: only server-side
// misbehavior (faults, panics, timeouts, internal errors) quarantines.
func breakerRelevant(code Code) bool {
	switch code {
	case CodeFault, CodePanic, CodeTimeout, CodeInternal:
		return true
	}
	return false
}

// sleep is a ctx-aware pause; tests inject a recording fake through
// Server.sleep.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// mix folds the server seed, job id and attempt into one well-spread
// 64-bit value (splitmix64 over the xor-folded inputs) — the same per-run
// seed feeds the retry jitter and the chaos plan, so a given (job,
// attempt) is fully reproducible for a fixed server seed.
func mix(seed int64, id, attempt uint64) uint64 {
	z := uint64(seed) ^ id*0x9e3779b97f4a7c15 ^ attempt*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
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
