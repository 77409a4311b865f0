package main

import (
	"bytes"
	"fmt"

	"repro/internal/experiment"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/workload"
)

// driver is one experiment driver call of a pass: the artifact it renders
// and the layer whose replays its sweep cells run.
type driver struct {
	name   string
	drives string
	run    func(experiment.Options) error
}

// regenDrivers are regen's artifacts in regen's order (see
// cmd/uselessmiss/regen.go), each with the simulator family it replays.
var regenDrivers = []driver{
	{"table2", "trace", experiment.Table2},
	{"table1", "core", experiment.Table1},
	{"fig5", "core", experiment.Fig5},
	{"fig6a", "coherence", func(o experiment.Options) error { return experiment.Fig6(o, 64) }},
	{"fig6b", "coherence", func(o experiment.Options) error { return experiment.Fig6(o, 1024) }},
	{"large", "coherence", experiment.Large},
	{"traffic", "coherence", experiment.Traffic},
	{"finite", "finite", func(o experiment.Options) error { return experiment.FiniteSweep(o, 64, 4) }},
	{"compare", "core", func(o experiment.Options) error { return experiment.Compare(o, 64) }},
	{"penalty", "timing", func(o experiment.Options) error {
		return experiment.Penalty(o, 1024, timing.DefaultModel())
	}},
	{"hotspots", "core", func(o experiment.Options) error { return experiment.Hotspots(o, 64) }},
	{"phases", "core", func(o experiment.Options) error { return experiment.Phases(o, 64, 10) }},
	{"ablate_cu", "coherence", func(o experiment.Options) error { return experiment.AblationCU(o, 64) }},
	{"ablate_wbwi", "coherence", func(o experiment.Options) error { return experiment.AblationWBWI(o, 1024) }},
	{"ablate_sector", "coherence", func(o experiment.Options) error { return experiment.AblationSector(o, 1024) }},
}

// regenQuick is every regen -quick artifact over one shared trace cache
// holding the four small data sets, which set-up materializes.
type regenQuick struct {
	drivers []driver
	cache   *sweep.TraceCache
	// want holds each artifact's reference bytes; large is pinned by hash.
	want map[string][]byte
}

func newRegenQuick(*bench) (runner, error) {
	w := &regenQuick{drivers: regenDrivers, want: make(map[string][]byte)}
	for _, d := range regenDrivers {
		var path string
		switch d.name {
		case "large":
			continue
		case "table1", "table2":
			path = goldenDir + "/" + d.name + ".txt"
		default:
			path = "results/" + d.name + ".txt"
		}
		b, err := readReference(path)
		if err != nil {
			return nil, err
		}
		w.want[d.name] = b
	}
	return w, nil
}

func (w *regenQuick) tracesProgram() bool { return true }

// setup materializes the four small-set traces into a fresh cache.
func (w *regenQuick) setup() error {
	cache := experiment.NewTraceCache()
	for _, name := range workload.SmallSet() {
		if _, err := cache.Source(name); err != nil {
			return err
		}
	}
	w.cache = cache
	return nil
}

func (w *regenQuick) close() error {
	w.cache = nil
	return nil
}

func (w *regenQuick) pass(b *bench) (passResult, error) {
	opts := experiment.Options{Quick: true, Parallelism: hostProcs, Cache: w.cache}
	return runDrivers(b, w.drivers, opts, func(name string, got []byte) {
		if name == "large" {
			b.checkSum("regen-quick "+name, got, quickLargeSHA256)
			return
		}
		b.check("regen-quick "+name, got, w.want[name])
	})
}

// probes times a generation-only pass over the small data sets.
func (w *regenQuick) probes(b *bench, m metrics) error {
	return genProbe(m, workload.SmallSet())
}

// runDrivers calls each driver once under opts, each inside an own span
// below the pass span, and hands every rendered output to check. The
// pass's wall time is the sum of the driver calls.
func runDrivers(b *bench, drivers []driver, opts experiment.Options, check func(name string, got []byte)) (passResult, error) {
	pr := passResult{layer: metrics{}}
	pass := b.tr.start("main", "pass", "unattributed", "", nil)
	defer pass.end()
	var rendered float64
	for _, d := range drivers {
		var buf bytes.Buffer
		o := opts
		o.Out = &buf
		sp := b.tr.start("main", "driver."+d.name, "experiment", d.drives, pass)
		cpu0 := cpuSeconds()
		secs, err := timed(func() error { return d.run(o) })
		pr.cpu += cpuSeconds() - cpu0
		sp.end()
		if err != nil {
			b.record(d.name, err)
			continue
		}
		pr.wall += secs
		pr.parts = append(pr.parts, secs)
		pr.layer["experiment."+d.name+"_s"] = secs
		fmt.Fprintf(b.out, "  %-14s %8.3fs\n", d.name, secs)
		rendered += float64(buf.Len())
		check(d.name, buf.Bytes())
	}
	pr.layer["report.bytes"] = rendered
	return pr, nil
}

// checkSum counts one operation whose output's SHA-256 must equal a
// pinned digest.
func (b *bench) checkSum(op string, got []byte, want string) {
	var err error
	if sum := sha256Hex(got); sum != want {
		err = fmt.Errorf("output SHA-256 %s, want %s", sum, want)
	}
	b.record(op, err)
}

// genProbe times one generation-only pass over the named workloads (every
// reference generated and dropped) and records workload.gen_s and
// workload.refs.
func genProbe(m metrics, names []string) error {
	var refs uint64
	secs, err := timed(func() error {
		for _, name := range names {
			wl, err := workload.Get(name)
			if err != nil {
				return err
			}
			n, err := drain(wl.Reader())
			if err != nil {
				return err
			}
			refs += n
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("generation probe: %w", err)
	}
	m["workload.gen_s"] = secs
	m["workload.refs"] = float64(refs)
	return nil
}

// drain reads r to the end, counting references, and closes it.
func drain(r trace.Reader) (uint64, error) {
	var c refCounter
	err := trace.Drive(r, &c)
	return c.n, err
}

// refCounter is a trace consumer that only counts.
type refCounter struct{ n uint64 }

func (c *refCounter) Ref(trace.Ref)          { c.n++ }
func (c *refCounter) RefBatch(r []trace.Ref) { c.n += uint64(len(r)) }
