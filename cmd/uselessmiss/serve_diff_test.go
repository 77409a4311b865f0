package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/tracestore"
)

// startDiffServer boots an in-process serving instance for the
// differential suite and tears it down through the graceful drain.
func startDiffServer(t *testing.T) string {
	t.Helper()
	s, err := serve.New(serve.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("serve drain: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("serve drain hung")
			s.Close()
		}
	})
	base := "http://" + s.Addr()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("serve never ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// postJob submits one body and returns the response bytes, failing on any
// non-200.
func postJob(t *testing.T, url, contentType string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, out)
	}
	return out
}

// TestServeDifferentialSpecJobs: a JSON job spec must render byte-identical
// tables to the offline CLI across the replay configurations a spec can
// reach — sweep parallelism and fusion. Fused specs
// replay fig5's whole block sweep in one pass per cell; unfused ones submit
// one single-block job per block size, so no replay is shared across block
// sizes.
func TestServeDifferentialSpecJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("differential grid is not short")
	}
	base := startDiffServer(t)

	t.Run("classify", func(t *testing.T) {
		want := runOut(t, "classify", "-workload", "LU32", "-block", "32")
		got := postJob(t, base+"/v1/jobs", "application/json",
			[]byte(`{"experiment":"classify","workload":"LU32","block":32}`))
		if want != string(got) {
			t.Errorf("classify spec diverges from CLI:\n--- want\n%s\n--- got\n%s", want, got)
		}
	})

	// The CLI's fig5 per -blocks value; "" is the default sweep.
	want := map[string]string{"": runOut(t, "fig5", "-workloads", "LU32")}
	for _, b := range []string{"8", "64", "1024"} {
		want[b] = runOut(t, "fig5", "-workloads", "LU32", "-blocks", b)
	}
	for _, tc := range []struct {
		name   string
		params string   // spec fields after the experiment and workloads
		blocks []string // one job per entry; "" keeps the default sweep
	}{
		{"defaults", ``, []string{""}},
		{"j1", `,"parallelism":1`, []string{""}},
		{"j8", `,"parallelism":8`, []string{""}},
		{"unfused", ``, []string{"8", "64", "1024"}},
		{"unfused_j8", `,"parallelism":8`, []string{"8", "64", "1024"}},
	} {
		t.Run("fig5_"+tc.name, func(t *testing.T) {
			for _, b := range tc.blocks {
				spec := `{"experiment":"fig5","workloads":["LU32"]` + tc.params
				if b != "" {
					spec += `,"blocks":[` + b + `]`
				}
				spec += `}`
				got := postJob(t, base+"/v1/jobs", "application/json", []byte(spec))
				if want[b] != string(got) {
					t.Errorf("fig5 spec %s diverges from CLI:\n--- want\n%s\n--- got\n%s", spec, want[b], got)
				}
			}
		})
	}
}

// TestServeDifferentialUploadedTraces: uploading a packed trace must
// classify byte-identically to the CLI reading the same file, and both
// front ends must reject a file in the retired stream codec.
func TestServeDifferentialUploadedTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("uploads full traces")
	}
	base := startDiffServer(t)

	t.Run("packed", func(t *testing.T) {
		path := packLU32(t)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := runOut(t, "classify", "-trace", path, "-block", "64")
		got := postJob(t, base+"/v1/jobs?block=64&scheme=all", "application/octet-stream", raw)
		if want != string(got) {
			t.Errorf("packed upload diverges from CLI:\n--- want\n%s\n--- got\n%s", want, got)
		}
	})

	t.Run("codec", func(t *testing.T) {
		// The first 8 LU32 references in the retired v2 stream codec, as
		// its encoder wrote them: regenerate such a file with 'trace pack'.
		raw := []byte("UMTR\x02\x10\x18\x00\x00\x00\x00\x00\x01\x00\x00\x02\x00\x00\x03\x01\x00\x02\x01\x00\x03\x00\x00\x04\x00\x00\x05\x81\xf2\x82\b\x00")
		path := filepath.Join(t.TempDir(), "LU32.bin")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := run([]string{"classify", "-trace", path, "-block", "64"}, &sb); !errors.Is(err, tracestore.ErrCorrupt) {
			t.Errorf("classify -trace of a codec file: err = %v, want tracestore.ErrCorrupt", err)
		}
		resp, err := http.Post(base+"/v1/jobs?block=64&scheme=all", "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != string(serve.CodeBadRequest) {
			t.Errorf("codec upload: got %d/%s, want 400/%s", resp.StatusCode, env.Error.Code, serve.CodeBadRequest)
		}
	})
}
