package perfbench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Schema identifies the BENCH_*.json layout. Bump on breaking changes;
// Compare refuses to gate across schemas.
const Schema = "uselessmiss/perfbench/v2"

// Report is one harness run: host metadata plus one result per workload.
// It serializes deterministically (workloads sorted by name).
type Report struct {
	Schema    string           `json:"schema"`
	Host      string           `json:"host"`
	GoVersion string           `json:"go_version"`
	GOOS      string           `json:"goos"`
	GOARCH    string           `json:"goarch"`
	NumCPU    int              `json:"num_cpu"`
	Date      string           `json:"date"` // YYYY-MM-DD
	Workloads []WorkloadResult `json:"workloads"`
}

// WorkloadResult is one workload's measurement.
type WorkloadResult struct {
	Name   string `json:"name"`
	Pinned bool   `json:"pinned"`
	// RefsPerPass is the references one pass replays.
	RefsPerPass uint64 `json:"refs_per_pass"`
	// Passes is the total timed passes across all timing windows.
	Passes int `json:"passes"`
	// RefsPerSec and NsPerRef are the throughput figures of the fastest
	// timing window (best-of-N defends against CPU steal on shared hosts).
	RefsPerSec float64 `json:"refs_per_sec"`
	NsPerRef   float64 `json:"ns_per_ref"`
	// AllocsPerPass is heap allocations per pass, measured at
	// GOMAXPROCS(1) like testing.AllocsPerRun.
	AllocsPerPass float64 `json:"allocs_per_pass"`
}

// Result returns the named workload's result, if present.
func (r *Report) Result(name string) (WorkloadResult, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return WorkloadResult{}, false
}

// sortWorkloads pins the serialization order.
func (r *Report) sortWorkloads() {
	sort.Slice(r.Workloads, func(i, j int) bool { return r.Workloads[i].Name < r.Workloads[j].Name })
}

// WriteJSON writes the report as indented JSON with a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	r.sortWorkloads()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = r.WriteJSON(f)
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	return err
}

// Load reads a BENCH_*.json report and validates its schema.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perfbench: parsing %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("perfbench: %s has schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// hostTag returns the hostname sanitized for use in a BENCH_<host>_<date>
// filename.
func hostTag() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "unknown"
	}
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '-'
		}
	}, host)
	return clean
}

// DefaultFilename returns the conventional report filename,
// BENCH_<host>_<YYYY-MM-DD>.json.
func DefaultFilename(now time.Time) string {
	return fmt.Sprintf("BENCH_%s_%s.json", hostTag(), now.Format("2006-01-02"))
}

// newReport returns a report shell with the host metadata filled in.
func newReport(now time.Time) *Report {
	return &Report{
		Schema:    Schema,
		Host:      hostTag(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Date:      now.Format("2006-01-02"),
	}
}
