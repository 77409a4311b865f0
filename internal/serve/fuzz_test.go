package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"os"
	"slices"
	"testing"

	"repro/internal/coherence"
	"repro/internal/experiment"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// FuzzJobSpec drives the submission front end — content-type dispatch, the
// JSON spec decoder, the upload query parser, validate and the upload
// sniffer — with hostile input. Properties: nothing panics; every rejection
// is a typed *JobError with a 4xx status; an accepted spec carries only
// what the drivers accept; an accepted upload's reader terminates, and once
// closed no spooled temp file is left behind.
func FuzzJobSpec(f *testing.F) {
	tmp := f.TempDir()
	f.Setenv("TMPDIR", tmp) // openTraceBytes spools packed uploads here

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
	codec, packed := smallBodies(f, 64)
	f.Add(true, "block=64&scheme=all", codec)
	f.Add(true, "block=64&scheme=ours&tenant=bob&timeout_ms=1000", packed)
	f.Add(true, "block=3", codec)

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
		}
		for _, name := range spec.Protocols {
			if _, err := coherence.New(name, workload.DefaultProcs, mem.MustGeometry(mem.WordBytes)); err != nil {
				t.Errorf("accepted protocol %q: %v", name, err)
			}
		}
		if spec.Parallelism < 0 || spec.Parallelism > maxPar || spec.Shards < 0 || spec.Shards > maxPar {
			t.Errorf("accepted parallelism %d / shards %d outside [0, %d]", spec.Parallelism, spec.Shards, maxPar)
		}
		if spec.TimeoutMs < 0 {
			t.Errorf("accepted negative timeout_ms %d", spec.TimeoutMs)
		}

		if traceBytes == nil {
			return
		}
		if tr, err := openTraceBytes(traceBytes); err == nil {
			for {
				if _, err := tr.Next(); err != nil {
					break // io.EOF or a decode error: either ends the stream
				}
			}
			trace.CloseReader(tr)
		}
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Fatalf("upload left %d spooled files behind", len(left))
		}
	})
}
