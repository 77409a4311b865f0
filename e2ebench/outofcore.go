package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiment"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// outOfCoreSets are the large data sets the out-of-core workload packs.
// WATER288 (73M references) is left out for run length.
var outOfCoreSets = []string{"LU200", "MP3D10000"}

// outOfCoreDrivers are the paper's large-data-set artifacts: Table 1 and
// the §7 study, both replaying from the packed files.
var outOfCoreDrivers = []driver{
	{"table1", "core", experiment.Table1},
	{"large", "coherence", experiment.Large},
}

// outOfCore replays Table 1 and the §7 study from packed trace files that
// set-up writes with the tracestore writer.
type outOfCore struct {
	dir   string
	files *experiment.TraceFileSet
	// pack holds the last set-up's packing: seconds, references, bytes.
	packSecs   float64
	packRefs   uint64
	packBytes  int64
	wantTable1 []byte
	wantLarge  []byte
}

func newOutOfCore(*bench) (runner, error) {
	t1, err := readReference("results/table1.txt")
	if err != nil {
		return nil, err
	}
	large, err := readReference("results/large.txt")
	if err != nil {
		return nil, err
	}
	return &outOfCore{wantTable1: t1, wantLarge: dropRows(large, "WATER288")}, nil
}

func (w *outOfCore) tracesProgram() bool { return true }

// setup packs both data sets into a fresh directory under TMPDIR and opens
// the files.
func (w *outOfCore) setup() error {
	dir, err := os.MkdirTemp("", "outofcore-")
	if err != nil {
		return err
	}
	w.dir = dir
	specs := make(map[string]string, len(outOfCoreSets))
	w.packRefs, w.packBytes = 0, 0
	w.packSecs, err = timed(func() error {
		for _, name := range outOfCoreSets {
			wl, err := workload.Get(name)
			if err != nil {
				return err
			}
			path := filepath.Join(dir, name+".umt")
			stats, err := wl.PackFile(path, tracestore.WriterOptions{})
			if err != nil {
				return fmt.Errorf("pack %s: %w", name, err)
			}
			w.packRefs += stats.Refs
			w.packBytes += stats.Bytes
			specs[name] = path
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.files, err = experiment.OpenTraceFiles(specs)
	return err
}

func (w *outOfCore) close() error {
	var err error
	if w.files != nil {
		err = w.files.Close()
		w.files = nil
	}
	if w.dir != "" {
		if rmErr := os.RemoveAll(w.dir); err == nil {
			err = rmErr
		}
		w.dir = ""
	}
	return err
}

func (w *outOfCore) pass(b *bench) (passResult, error) {
	opts := experiment.Options{
		Workloads:   outOfCoreSets,
		Parallelism: hostProcs,
		TraceFiles:  w.files,
		Cache:       experiment.NewTraceCache(),
	}
	return runDrivers(b, outOfCoreDrivers, opts, func(name string, got []byte) {
		want := w.wantTable1
		if name == "large" {
			want = w.wantLarge
		}
		b.check("outofcore "+name, got, want)
	})
}

// probes records the last set-up's packing, then times a decode-only pass
// over the packed files and a generation-only pass over the data sets.
func (w *outOfCore) probes(b *bench, m metrics) error {
	m["tracestore.pack_s"] = w.packSecs
	m["tracestore.bytes_per_ref"] = float64(w.packBytes) / float64(w.packRefs)
	var refs uint64
	secs, err := timed(func() error {
		for _, name := range w.files.Names() {
			n, err := drain(w.files.File(name).Reader())
			if err != nil {
				return err
			}
			refs += n
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("decode probe: %w", err)
	}
	m["tracestore.decode_ns_per_ref"] = secs * 1e9 / float64(refs)
	return genProbe(m, outOfCoreSets)
}
