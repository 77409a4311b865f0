// Package serve is the long-running classification service: clients
// submit jobs — JSON specs naming a workload/experiment, or uploaded
// trace bodies — over HTTP and get back the exact tables the offline CLI
// renders. A job's output is a pure function of its spec and trace, so the
// server carries only the robustness that can change an outcome: a bounded
// admission-controlled queue (429 + Retry-After under overload, per-tenant
// in-flight caps), per-job deadlines and client-disconnect cancellation on
// the repo's context plumbing, panic recovery into typed job errors, and a
// graceful drain on SIGINT/SIGTERM that flips /readyz before the listener
// stops accepting.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Config tunes the server. The zero value is not usable; withDefaults
// fills every unset knob with production defaults, so tests and the CLI
// only set what they care about.
type Config struct {
	// Addr is the listen address; ":0" picks a free port (tests).
	Addr string
	// Workers is the job worker pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds admitted-but-unfinished jobs (queued + running);
	// beyond it submissions shed with 429.
	QueueDepth int
	// TenantCap bounds one tenant's share of QueueDepth.
	TenantCap int
	// JobTimeout is the default per-job deadline; MaxJobTimeout caps
	// what a spec may request.
	JobTimeout    time.Duration
	MaxJobTimeout time.Duration
	// DrainTimeout bounds the graceful drain; in-flight jobs still
	// running at the deadline are force-canceled.
	DrainTimeout time.Duration
	// RetryAfter is the hint returned with 429/503 responses.
	RetryAfter time.Duration
	// MaxBodyBytes bounds an uploaded trace body.
	MaxBodyBytes int64
	// MaxParallelism clamps a spec's parallelism.
	MaxParallelism int

	// wrap, when non-nil, wraps the trace reader a classify or upload job
	// reads; the in-package drain and chaos tests inject their stalls and
	// faults through it. Nil in production.
	wrap func(trace.Reader) trace.Reader
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8095"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TenantCap <= 0 {
		c.TenantCap = 16
	}
	if c.TenantCap > c.QueueDepth {
		c.TenantCap = c.QueueDepth
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.MaxJobTimeout <= 0 {
		c.MaxJobTimeout = 10 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = 4 * runtime.GOMAXPROCS(0)
	}
	return c
}

// ErrDrainForced marks a drain that hit its deadline and force-canceled
// in-flight jobs; the CLI maps it to exit code 3.
var ErrDrainForced = errors.New("serve: drain deadline exceeded")

// Server is one serving process: listener, admission controller, shared
// trace cache and worker pool.
type Server struct {
	cfg Config

	ln  net.Listener
	srv *http.Server

	adm   *admitter
	cache *sweep.TraceCache

	// jobs is the bounded queue. Admission reserves a slot before a job
	// is enqueued and the channel's capacity equals the admission bound,
	// so sends never block; sendMu/closed make close-vs-send safe on the
	// forced-drain path (a closed queue turns an enqueue into a typed
	// rejection instead of a panic).
	jobs     chan *job
	sendMu   sync.RWMutex
	qclosed  bool
	inflight atomic.Int64

	// jobsCtx parents every job context. It is NOT derived from Run's
	// ctx: Run's cancellation starts the graceful drain, during which
	// in-flight jobs keep running; only the drain deadline cancels
	// jobsCtx (the forced path).
	jobsCtx     context.Context
	forceCancel context.CancelFunc

	nextID atomic.Uint64
	wg     sync.WaitGroup

	// ready is what this server's /readyz reports. Run sets it, clears it
	// first when the drain starts and again on return, so a second server
	// in the same process keeps its own readiness.
	ready atomic.Bool

	// Server-local mirrors of the obs counters, for /v1/stats (the obs
	// registry is process-global; these are this server's own).
	admitted  atomic.Uint64
	rejected  atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	forced    atomic.Uint64
}

// New binds the listener and assembles the server; Run starts serving.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	jobsCtx, forceCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		ln:          ln,
		adm:         newAdmitter(cfg.QueueDepth, cfg.TenantCap),
		cache:       experiment.NewTraceCache(),
		jobs:        make(chan *job, cfg.QueueDepth),
		jobsCtx:     jobsCtx,
		forceCancel: forceCancel,
	}
	s.srv = &http.Server{Handler: s.handler()}
	return s, nil
}

// Addr is the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close tears the server down without draining (tests' cleanup path).
func (s *Server) Close() error {
	s.forceCancel()
	return s.srv.Close()
}

// Run serves until ctx is canceled, then drains gracefully:
//
//  1. /readyz flips unready FIRST — load balancers stop sending work
//     while the listener is still accepting;
//  2. admission closes — new submissions get a typed 503 "draining";
//  3. in-flight jobs run to completion, up to DrainTimeout;
//  4. at the deadline, remaining jobs are force-canceled (typed
//     "canceled" errors to their clients) and counted;
//  5. the listener shuts down last, after the last response is written.
//
// A clean drain returns nil (exit 0); a forced drain returns
// ErrDrainForced (exit 3).
func (s *Server) Run(ctx context.Context) error {
	s.ready.Store(true)
	defer s.ready.Store(false)

	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.srv.Serve(s.ln) }()

	select {
	case err := <-serveErr:
		// Listener died out from under us: cancel everything.
		s.forceCancel()
		s.closeQueue()
		s.wg.Wait()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
	}

	// Graceful drain. Order matters; see the doc comment.
	s.ready.Store(false)
	drained := s.adm.beginDrain()

	forced := false
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-drained:
	case <-timer.C:
		forced = true
		s.forceCancel()
		// The canceled jobs unwind through their contexts and release
		// their slots; give them a bounded moment to do so.
		cleanup := time.NewTimer(5 * time.Second)
		select {
		case <-drained:
			cleanup.Stop()
		case <-cleanup.C:
		}
	}

	s.closeQueue()
	s.wg.Wait()
	s.forceCancel()

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(shutCtx); err != nil {
		s.srv.Close()
	}

	if forced {
		n := s.forced.Load()
		mForced.Add(n)
		return fmt.Errorf("%w (%d jobs force-canceled)", ErrDrainForced, n)
	}
	return nil
}

// enqueue hands an admitted job to the worker pool. The admission slot
// guarantees channel capacity, so the send never blocks; a closed queue
// (forced drain already past) rejects instead.
func (s *Server) enqueue(j *job) bool {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.qclosed {
		return false
	}
	s.jobs <- j
	return true
}

// closeQueue closes the job channel exactly once, excluding concurrent
// enqueues. Workers range until close, draining every buffered job, so
// every successfully enqueued job is processed and its submitter
// unblocked.
func (s *Server) closeQueue() {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if !s.qclosed {
		s.qclosed = true
		close(s.jobs)
	}
}

// worker drains the job queue until it closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		mInflight.Set(float64(s.inflight.Add(1)))
		s.runJob(j)
		mInflight.Set(float64(s.inflight.Add(-1)))
		if j.err == nil {
			mCompleted.Inc()
			s.completed.Add(1)
		} else {
			mFailed.Inc()
			s.failed.Add(1)
			if j.err.Code == CodeCanceled && s.jobsCtx.Err() != nil {
				// Canceled by the drain deadline, not by its own
				// client going away.
				s.forced.Add(1)
			}
		}
		mLatency.Observe(uint64(time.Since(j.start)))
		s.adm.release(j.spec.tenant())
		j.cancel()
		close(j.done)
	}
}
