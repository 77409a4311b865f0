package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// handler builds the server's mux: the job API, and next to it the
// serving port's introspection routes — the process-wide obs registry as
// Prometheus text at /metrics, liveness at /healthz, this server's
// readiness at /readyz, and the net/http/pprof suite under /debug/pprof/.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default.WritePrometheus(w) //nolint:errcheck // best-effort response
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n")) //nolint:errcheck // best-effort response
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n")) //nolint:errcheck // best-effort response
			return
		}
		w.Write([]byte("ok\n")) //nolint:errcheck // best-effort response
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// errorEnvelope is the JSON body of every non-200 response.
type errorEnvelope struct {
	Error struct {
		Code      Code   `json:"code"`
		Message   string `json:"message"`
		Job       uint64 `json:"job,omitempty"`
		Retryable bool   `json:"retryable"`
	} `json:"error"`
}

// writeError renders a JobError as its HTTP status plus the JSON envelope,
// attaching Retry-After to the shedding statuses.
func (s *Server) writeError(w http.ResponseWriter, je *JobError) {
	status := je.HTTPStatus()
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		secs := int(s.cfg.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	var env errorEnvelope
	env.Error.Code = je.Code
	env.Error.Message = je.Error()
	env.Error.Job = je.Job
	env.Error.Retryable = je.Retryable()
	json.NewEncoder(w).Encode(&env) //nolint:errcheck // best-effort error body
}

// handleSubmit is the job API: a JSON JobSpec body, or an uploaded packed
// trace body (see 'uselessmiss trace pack') with the classify parameters in
// the query string. The call is synchronous — the response is the rendered
// table, byte-identical to the offline CLI's.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, traceBytes, je := s.parseSubmission(r)
	if je == nil {
		je = spec.validate(s.cfg.MaxParallelism, traceBytes != nil)
	}
	if je != nil {
		mRejected.Inc()
		s.rejected.Add(1)
		s.writeError(w, je)
		return
	}

	tenant := spec.tenant()
	if je := s.adm.admit(tenant); je != nil {
		mRejected.Inc()
		s.rejected.Add(1)
		s.writeError(w, je)
		return
	}

	j := &job{
		id:         s.nextID.Add(1),
		spec:       *spec,
		traceBytes: traceBytes,
		done:       make(chan struct{}),
	}
	// The job's context descends from jobsCtx — NOT the request context —
	// so a graceful drain lets it finish; the client going away cancels
	// it through AfterFunc.
	j.ctx, j.cancel = context.WithCancel(s.jobsCtx)
	stopWatch := context.AfterFunc(r.Context(), j.cancel)
	defer stopWatch()
	j.start = time.Now()

	if !s.enqueue(j) {
		j.cancel()
		s.adm.release(tenant)
		mRejected.Inc()
		s.rejected.Add(1)
		s.writeError(w, &JobError{Code: CodeDraining, Tenant: tenant, Job: j.id})
		return
	}
	mAdmitted.Inc()
	s.admitted.Add(1)

	<-j.done
	if j.err != nil {
		s.writeError(w, j.err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Job-Id", strconv.FormatUint(j.id, 10))
	w.Header().Set("X-Job-Elapsed-Ms", strconv.FormatInt(time.Since(j.start).Milliseconds(), 10))
	w.Write(j.out.Bytes()) //nolint:errcheck // client disconnect is not actionable
}

// parseSubmission extracts the job spec and optional trace body from the
// request. JSON bodies are specs; octet-stream bodies are trace uploads
// whose parameters arrive in the query string and X-Tenant header.
func (s *Server) parseSubmission(r *http.Request) (*JobSpec, []byte, *JobError) {
	badReq := func(format string, args ...any) *JobError {
		return &JobError{Code: CodeBadRequest, Err: fmt.Errorf(format, args...)}
	}
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.TrimSpace(ct)

	switch ct {
	case "", "application/json":
		var spec JobSpec
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return nil, nil, badReq("body exceeds %d bytes", s.cfg.MaxBodyBytes)
			}
			return nil, nil, badReq("bad job spec: %v", err)
		}
		return &spec, nil, nil
	case "application/octet-stream":
		raw, err := io.ReadAll(body)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return nil, nil, badReq("trace body exceeds %d bytes", s.cfg.MaxBodyBytes)
			}
			return nil, nil, badReq("reading trace body: %v", err)
		}
		if len(raw) == 0 {
			return nil, nil, badReq("empty trace body")
		}
		q := r.URL.Query()
		spec := &JobSpec{
			Experiment: "classify",
			Scheme:     q.Get("scheme"),
			Tenant:     q.Get("tenant"),
		}
		if spec.Tenant == "" {
			spec.Tenant = r.Header.Get("X-Tenant")
		}
		if v := q.Get("block"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, nil, badReq("bad block %q", v)
			}
			spec.Block = n
		}
		if v := q.Get("timeout_ms"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, nil, badReq("bad timeout_ms %q", v)
			}
			spec.TimeoutMs = n
		}
		return spec, raw, nil
	}
	return nil, nil, badReq("unsupported Content-Type %q", ct)
}

// statsReply is the /v1/stats JSON shape: queue, job and replayed-ref
// counters as one JSON document, for clients that do not scrape the
// Prometheus text.
type statsReply struct {
	Queue struct {
		Depth    int            `json:"depth"`
		Cap      int            `json:"cap"`
		Tenants  map[string]int `json:"tenants"`
		Draining bool           `json:"draining"`
	} `json:"queue"`
	Jobs struct {
		Admitted  uint64 `json:"admitted"`
		Rejected  uint64 `json:"rejected"`
		Completed uint64 `json:"completed"`
		Failed    uint64 `json:"failed"`
		Forced    uint64 `json:"forced_cancels"`
	} `json:"jobs"`
	Refs struct {
		Driven    uint64 `json:"driven"`
		Collected uint64 `json:"collected"`
	} `json:"refs"`
}

var (
	cDriveRefs   = obs.Default.Counter(obs.NameDriveRefs)
	cCollectRefs = obs.Default.Counter(obs.NameCollectRefs)
)

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var reply statsReply
	depth, tenants, draining := s.adm.snapshot()
	reply.Queue.Depth = depth
	reply.Queue.Cap = s.cfg.QueueDepth
	reply.Queue.Tenants = tenants
	reply.Queue.Draining = draining
	reply.Jobs.Admitted = s.admitted.Load()
	reply.Jobs.Rejected = s.rejected.Load()
	reply.Jobs.Completed = s.completed.Load()
	reply.Jobs.Failed = s.failed.Load()
	reply.Jobs.Forced = s.forced.Load()
	reply.Refs.Driven = cDriveRefs.Value()
	reply.Refs.Collected = cCollectRefs.Value()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&reply) //nolint:errcheck // best-effort stats
}
