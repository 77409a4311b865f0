package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/url"
	"os"
	"slices"
	"testing"

	"repro/internal/coherence"
	"repro/internal/experiment"
	"repro/internal/mem"
	"repro/internal/workload"
)

// FuzzJobSpec drives the submission front end — content-type dispatch, the
// JSON spec decoder, the upload query parser, validate — and the runner's
// upload path with hostile input. Properties: nothing panics; every
// rejection is a typed *JobError with a 4xx status; an accepted spec
// carries only what the drivers accept; an accepted upload either
// classifies or fails as a bad request, and leaves no temp file behind.
func FuzzJobSpec(f *testing.F) {
	tmp := f.TempDir()
	f.Setenv("TMPDIR", tmp) // where an upload spooled to disk would land

	for _, spec := range []string{
		`{"experiment":"fig5","workloads":["LU32"],"tenant":"alice","timeout_ms":60000}`,
		`{"experiment":"classify","workload":"JACOBI","block":64,"scheme":"all"}`,
		`{"experiment":"fig6","quick":true,"workloads":["LU32"],"protocols":["OTF","MIN"],"block":32}`,
		`{"experiment":"fig5","workloads":["LU32"],"parallelism":8,"shards":8,"blocks":[8,64,1024]}`,
	} {
		f.Add(false, "", []byte(spec))
	}
	for _, tc := range badSpecs {
		f.Add(false, "", []byte(tc.spec))
	}
	packed := smallBody(f, 64)
	f.Add(true, "block=64&scheme=all", packed)
	f.Add(true, "block=64&scheme=ours&tenant=bob&timeout_ms=1000", packed)
	f.Add(true, "block=3", packed)

	s := &Server{cfg: Config{}.withDefaults()}
	maxPar := s.cfg.MaxParallelism
	f.Fuzz(func(t *testing.T, upload bool, query string, body []byte) {
		ct := "application/json"
		if upload {
			ct = "application/octet-stream"
		}
		r := &http.Request{
			Method: http.MethodPost,
			URL:    &url.URL{Path: "/v1/jobs", RawQuery: query},
			Header: http.Header{"Content-Type": {ct}},
			Body:   io.NopCloser(bytes.NewReader(body)),
		}
		spec, traceBytes, je := s.parseSubmission(r)
		if je == nil {
			je = spec.validate(maxPar, traceBytes != nil)
		}
		if je != nil {
			if st := je.HTTPStatus(); st < 400 || st > 499 {
				t.Fatalf("rejection %v has status %d, want 4xx", je, st)
			}
			return
		}

		if spec.Experiment != "classify" && !slices.Contains(experiment.JobKinds, spec.Experiment) {
			t.Errorf("accepted unknown experiment %q", spec.Experiment)
		}
		blocks := spec.Blocks
		if spec.Block != 0 {
			blocks = append([]int{spec.Block}, blocks...)
		}
		for _, b := range blocks {
			if _, err := mem.NewGeometry(b); err != nil {
				t.Errorf("accepted block size %d: %v", b, err)
			}
			if b > mem.MaxBlockBytes {
				t.Errorf("accepted block size %d above the %d-byte bound", b, mem.MaxBlockBytes)
			}
		}
		for _, name := range spec.Protocols {
			if _, err := coherence.New(name, workload.DefaultProcs, mem.MustGeometry(mem.WordBytes)); err != nil {
				t.Errorf("accepted protocol %q: %v", name, err)
			}
		}
		if spec.Parallelism < 0 || spec.Parallelism > maxPar {
			t.Errorf("accepted parallelism %d outside [0, %d]", spec.Parallelism, maxPar)
		}
		if spec.TimeoutMs < 0 {
			t.Errorf("accepted negative timeout_ms %d", spec.TimeoutMs)
		}

		if traceBytes == nil {
			return
		}
		j := &job{spec: *spec, traceBytes: traceBytes}
		if err := s.run(context.Background(), j); err != nil {
			if je := s.classify(j, err); je.Code != CodeBadRequest {
				t.Fatalf("upload failed as %s, want %s: %v", je.Code, CodeBadRequest, err)
			}
		}
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Fatalf("upload left %d files behind", len(left))
		}
	})
}
