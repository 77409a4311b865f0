package experiment

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// TraceFileSet binds workload names to opened packed trace files (the
// CLI's -trace-file NAME=PATH bindings). A bound workload replays from its
// file instead of regenerating: every cell opens a file reader of its own
// (see Options.source). Close the set when the run is done.
type TraceFileSet struct {
	files map[string]*tracestore.File
	paths map[string]string
}

// OpenTraceFiles opens every binding, validating that each name is a
// registered workload and that the packed trace's processor count matches
// the workload's — replaying MP3D's file as WATER would silently produce
// garbage figures otherwise. On error, files opened so far are closed.
func OpenTraceFiles(specs map[string]string) (*TraceFileSet, error) {
	s := &TraceFileSet{
		files: make(map[string]*tracestore.File, len(specs)),
		paths: make(map[string]string, len(specs)),
	}
	for name, path := range specs {
		w, err := workload.Get(name)
		if err != nil {
			s.Close() //nolint:errcheck // error-path cleanup
			return nil, err
		}
		f, err := tracestore.Open(path)
		if err != nil {
			s.Close() //nolint:errcheck // error-path cleanup
			return nil, err
		}
		if f.Procs() != w.Procs {
			f.Close() //nolint:errcheck // error-path cleanup
			s.Close() //nolint:errcheck // error-path cleanup
			return nil, fmt.Errorf("experiment: trace file %s has %d processors, workload %s has %d",
				path, f.Procs(), name, w.Procs)
		}
		s.files[name] = f
		s.paths[name] = path
	}
	return s, nil
}

// TraceFileInfo identifies one opened trace-file binding for provenance
// manifests: the workload, the file's path and size, and the TOC digest —
// the content hash 'trace pack' reports.
type TraceFileInfo struct {
	Workload  string `json:"workload"`
	Path      string `json:"path"`
	Refs      uint64 `json:"refs"`
	Bytes     int64  `json:"bytes"`
	TOCSHA256 string `json:"toc_sha256"`
}

// Manifest describes every binding, in sorted workload order. Safe on a
// nil set (returns nil).
func (s *TraceFileSet) Manifest() []TraceFileInfo {
	if s == nil {
		return nil
	}
	infos := make([]TraceFileInfo, 0, len(s.files))
	for _, name := range s.Names() {
		f := s.files[name]
		infos = append(infos, TraceFileInfo{
			Workload:  name,
			Path:      s.paths[name],
			Refs:      f.NumRefs(),
			Bytes:     f.Size(),
			TOCSHA256: f.TOCDigest(),
		})
	}
	return infos
}

// File returns the opened trace file bound to name, or nil (also on a nil
// set).
func (s *TraceFileSet) File(name string) *tracestore.File {
	if s == nil {
		return nil
	}
	return s.files[name]
}

// Names lists the bound workload names in sorted order.
func (s *TraceFileSet) Names() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.files))
	for name := range s.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Close closes every file, returning the first error.
func (s *TraceFileSet) Close() error {
	if s == nil {
		return nil
	}
	var first error
	for _, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.files = nil
	return first
}

// source resolves the reader factory a cell replays one workload's trace
// from. A file-backed workload opens a reader over the whole file directly,
// bypassing the cache, so the cell moves no cache counter and keeps
// O(segment) resident memory; anything else takes the cache's source
// factory (an in-memory replay or a fresh generation).
func (o Options) source(ctx context.Context, cache *sweep.TraceCache, name string) (func() (trace.Reader, error), error) {
	if f := o.TraceFiles.File(name); f != nil {
		return func() (trace.Reader, error) { return f.ReaderContext(ctx), nil }, nil
	}
	return cache.SourceContext(ctx, name)
}

// reader opens one reader over a workload's trace from its source.
func (o Options) reader(ctx context.Context, cache *sweep.TraceCache, name string) (trace.Reader, error) {
	open, err := o.source(ctx, cache, name)
	if err != nil {
		return nil, err
	}
	return open()
}
