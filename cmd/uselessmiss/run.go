package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// run dispatches a subcommand under a background context; it is the
// testable entry point for callers that never cancel.
func run(args []string, out io.Writer) error {
	return runContext(context.Background(), args, out)
}

// runContext dispatches a subcommand under ctx — the CLI's signal context,
// tightened further by each subcommand's -timeout flag. Cancelling ctx
// aborts in-flight sweep cells at batch granularity and surfaces
// context.Canceled (or DeadlineExceeded) to the caller.
func runContext(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (try 'list', 'table1', 'table2', 'fig5', 'fig6', 'large', 'traffic', 'finite', 'ablate', 'compare', 'penalty', 'hotspots', 'phases', 'bench', 'regen', 'selfcheck', 'classify', 'protocols', 'serve', 'trace')")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "list":
		return cmdList(out)
	case "table1":
		return cmdExperiment(ctx, rest, out, "table1")
	case "table2":
		return cmdExperiment(ctx, rest, out, "table2")
	case "fig5":
		return cmdFig5(ctx, rest, out)
	case "fig6":
		return cmdFig6(ctx, rest, out)
	case "large":
		return cmdExperiment(ctx, rest, out, "large")
	case "traffic":
		return cmdExperiment(ctx, rest, out, "traffic")
	case "finite":
		return cmdFinite(ctx, rest, out)
	case "ablate":
		return cmdAblate(ctx, rest, out)
	case "compare":
		return cmdCompare(ctx, rest, out)
	case "penalty":
		return cmdPenalty(ctx, rest, out)
	case "hotspots":
		return cmdHotspots(ctx, rest, out)
	case "phases":
		return cmdPhases(ctx, rest, out)
	case "bench":
		return cmdBench(rest, out)
	case "regen":
		return cmdRegen(ctx, rest, out)
	case "selfcheck":
		return cmdSelfcheck(rest, out)
	case "classify":
		return cmdClassify(ctx, rest, out)
	case "serve":
		return cmdServe(ctx, rest, out)
	case "protocols":
		return cmdProtocols(ctx, rest, out)
	case "trace":
		return cmdTrace(ctx, rest, out)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func cmdList(out io.Writer) error {
	tb := report.NewTable("workload", "procs", "data(KB)", "description")
	for _, name := range workload.Names() {
		w, err := workload.Get(name)
		if err != nil {
			return err
		}
		tb.Rowf(w.Name, w.Procs, fmt.Sprintf("%.0f", float64(w.DataBytes)/1024), w.Description)
	}
	tb.Fprint(out)
	return nil
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad block size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// expFlags carries the flag values shared by the experiment subcommands.
type expFlags struct {
	quick, csv           *bool
	workloads, protocols *string
	traceFiles           traceFileFlag
	par                  *int
	timeout              *time.Duration
	prof                 *profiler
	in                   *instruments
}

// experimentFlags registers the flags shared by the experiment subcommands.
func experimentFlags(fs *flag.FlagSet) *expFlags {
	ef := &expFlags{traceFiles: traceFileFlag{}}
	ef.quick = fs.Bool("quick", false, "use the small data sets for the heavy runs")
	ef.csv = fs.Bool("csv", false, "emit CSV instead of aligned tables")
	ef.workloads = fs.String("workloads", "", "comma-separated workload list (default: the experiment's own)")
	ef.protocols = fs.String("protocols", "", "comma-separated protocol list (fig6/large only)")
	ef.par = fs.Int("j", 0, "worker goroutines for the sweep grid (0 = GOMAXPROCS, 1 = serial)")
	fs.Var(ef.traceFiles, "trace-file", "replay workloads from packed trace files: comma-separated NAME=PATH bindings, repeatable (see 'trace pack'); bound workloads stream out-of-core instead of regenerating")
	ef.timeout = fs.Duration("timeout", 0, "abort the run after this duration, like an interrupt (0 = no limit)")
	ef.prof = addProfileFlags(fs)
	ef.in = addObsFlags(fs)
	return ef
}

// options builds the experiment Options for one invocation, deriving the
// run context from ctx and -timeout and opening any -trace-file bindings.
// The caller must defer the cleanup so a timeout timer or an open trace
// file never outlives its run.
func (ef *expFlags) options(ctx context.Context, out io.Writer) (experiment.Options, func(), error) {
	var files *experiment.TraceFileSet
	if len(ef.traceFiles) > 0 {
		var err error
		if files, err = experiment.OpenTraceFiles(ef.traceFiles); err != nil {
			return experiment.Options{}, nil, err
		}
	}
	ctx, cancel := ef.withTimeout(ctx)
	cleanup := func() {
		cancel()
		files.Close() //nolint:errcheck // read-only handles; nothing to lose
	}
	ef.in.traceManifest = files.Manifest
	return experiment.Options{
		Out: out, Quick: *ef.quick, CSV: *ef.csv,
		Workloads:   splitList(*ef.workloads),
		Protocols:   splitList(*ef.protocols),
		Parallelism: *ef.par,
		Ctx:         ctx,
		TraceFiles:  files,
	}, cleanup, nil
}

// traceFileFlag collects -trace-file bindings (workload name to packed
// trace path) across every repeat of the flag. Each value holds one or more
// comma-separated NAME=PATH bindings; binding a workload twice, within one
// value or across repeats, is an error.
type traceFileFlag map[string]string

// String implements flag.Value, listing the bindings in name order.
func (f traceFileFlag) String() string {
	parts := make([]string, 0, len(f))
	for name, path := range f {
		parts = append(parts, name+"="+path)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Set implements flag.Value, adding one value's bindings.
func (f traceFileFlag) Set(s string) error {
	for _, part := range splitList(s) {
		name, path, ok := strings.Cut(part, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("bad binding %q (want NAME=PATH)", part)
		}
		if _, dup := f[name]; dup {
			return fmt.Errorf("duplicate binding for %s", name)
		}
		f[name] = path
	}
	return nil
}

// withTimeout tightens ctx with the -timeout flag. Expiry behaves exactly
// like an interrupt: the sweep drains, the metrics report flushes (the obs
// wrapper runs after the experiment returns) and the CLI exits 130.
func (ef *expFlags) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if *ef.timeout > 0 {
		return context.WithTimeout(ctx, *ef.timeout)
	}
	return ctx, func() {}
}

// around wraps fn in the profiling and instrumentation lifecycles.
func (ef *expFlags) around(fn func() error) error {
	return ef.prof.around(ef.in.around(fn))
}

func cmdExperiment(ctx context.Context, args []string, out io.Writer, which string) error {
	fs := flag.NewFlagSet(which, flag.ContinueOnError)
	ef := experimentFlags(fs)
	if err := ef.in.parse(fs, args); err != nil {
		return err
	}
	o, cleanup, err := ef.options(ctx, out)
	if err != nil {
		return err
	}
	defer cleanup()
	return ef.around(func() error {
		switch which {
		case "table1":
			return experiment.Table1(o)
		case "table2":
			return experiment.Table2(o)
		case "large":
			return experiment.Large(o)
		case "traffic":
			return experiment.Traffic(o)
		default:
			return fmt.Errorf("internal: unknown experiment %q", which)
		}
	})
}

func cmdCompare(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	ef := experimentFlags(fs)
	block := fs.Int("block", 64, "block size in bytes")
	if err := ef.in.parse(fs, args); err != nil {
		return err
	}
	o, cleanup, err := ef.options(ctx, out)
	if err != nil {
		return err
	}
	defer cleanup()
	return ef.around(func() error { return experiment.Compare(o, *block) })
}

func cmdPhases(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("phases", flag.ContinueOnError)
	ef := experimentFlags(fs)
	block := fs.Int("block", 64, "block size in bytes")
	buckets := fs.Int("buckets", 10, "maximum rows per workload")
	if err := ef.in.parse(fs, args); err != nil {
		return err
	}
	o, cleanup, err := ef.options(ctx, out)
	if err != nil {
		return err
	}
	defer cleanup()
	return ef.around(func() error { return experiment.Phases(o, *block, *buckets) })
}

func cmdHotspots(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hotspots", flag.ContinueOnError)
	ef := experimentFlags(fs)
	block := fs.Int("block", 64, "block size in bytes")
	if err := ef.in.parse(fs, args); err != nil {
		return err
	}
	o, cleanup, err := ef.options(ctx, out)
	if err != nil {
		return err
	}
	defer cleanup()
	return ef.around(func() error { return experiment.Hotspots(o, *block) })
}

func cmdPenalty(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("penalty", flag.ContinueOnError)
	ef := experimentFlags(fs)
	block := fs.Int("block", 64, "block size in bytes")
	missPenalty := fs.Uint64("miss-penalty", 30, "blocking cycles per miss")
	syncCycles := fs.Uint64("sync-cycles", 3, "cycles per acquire/release")
	if err := ef.in.parse(fs, args); err != nil {
		return err
	}
	o, cleanup, err := ef.options(ctx, out)
	if err != nil {
		return err
	}
	defer cleanup()
	m := timing.Model{RefCycles: 1, MissPenalty: *missPenalty, SyncCycles: *syncCycles}
	return ef.around(func() error { return experiment.Penalty(o, *block, m) })
}

func cmdFinite(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("finite", flag.ContinueOnError)
	ef := experimentFlags(fs)
	block := fs.Int("block", 64, "block size in bytes")
	assoc := fs.Int("assoc", 4, "cache associativity")
	if err := ef.in.parse(fs, args); err != nil {
		return err
	}
	o, cleanup, err := ef.options(ctx, out)
	if err != nil {
		return err
	}
	defer cleanup()
	return ef.around(func() error { return experiment.FiniteSweep(o, *block, *assoc) })
}

func cmdAblate(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ablate", flag.ContinueOnError)
	ef := experimentFlags(fs)
	what := fs.String("what", "cu", "ablation to run: cu (competitive-update threshold), wbwi (invalidation buffer) or sector (coherence grain)")
	block := fs.Int("block", 64, "block size in bytes")
	if err := ef.in.parse(fs, args); err != nil {
		return err
	}
	o, cleanup, err := ef.options(ctx, out)
	if err != nil {
		return err
	}
	defer cleanup()
	return ef.around(func() error {
		switch *what {
		case "cu":
			return experiment.AblationCU(o, *block)
		case "wbwi":
			return experiment.AblationWBWI(o, *block)
		case "sector":
			return experiment.AblationSector(o, *block)
		default:
			return fmt.Errorf("unknown ablation %q (want cu, wbwi or sector)", *what)
		}
	})
}

func cmdFig5(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fig5", flag.ContinueOnError)
	ef := experimentFlags(fs)
	blocks := fs.String("blocks", "", "comma-separated block sizes in bytes (default 4..2048)")
	if err := ef.in.parse(fs, args); err != nil {
		return err
	}
	blockList, err := splitInts(*blocks)
	if err != nil {
		return err
	}
	o, cleanup, err := ef.options(ctx, out)
	if err != nil {
		return err
	}
	defer cleanup()
	o.Blocks = blockList
	return ef.around(func() error { return experiment.Fig5(o) })
}

func cmdFig6(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fig6", flag.ContinueOnError)
	ef := experimentFlags(fs)
	block := fs.Int("block", 64, "block size in bytes (64 for Fig. 6a, 1024 for Fig. 6b)")
	if err := ef.in.parse(fs, args); err != nil {
		return err
	}
	o, cleanup, err := ef.options(ctx, out)
	if err != nil {
		return err
	}
	defer cleanup()
	return ef.around(func() error { return experiment.Fig6(o, *block) })
}

// openTrace returns a reader for either a named workload or a packed trace
// file (see 'trace pack'), which replays out-of-core.
func openTrace(workloadName, file string) (trace.Reader, error) {
	switch {
	case workloadName != "" && file != "":
		return nil, fmt.Errorf("give either -workload or -trace, not both")
	case workloadName != "":
		w, err := workload.Get(workloadName)
		if err != nil {
			return nil, err
		}
		return w.Reader(), nil
	case file != "":
		return tracestore.OpenReader(file)
	default:
		return nil, fmt.Errorf("need -workload NAME or -trace FILE")
	}
}

func cmdClassify(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("classify", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload name (see 'list')")
	file := fs.String("trace", "", "packed trace file (see 'trace pack'; alternative to -workload)")
	block := fs.Int("block", 64, "block size in bytes")
	scheme := fs.String("scheme", "all", "classification scheme: ours, eggers, torrellas or all")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r, err := openTrace(*workloadName, *file)
	if err != nil {
		return err
	}
	return experiment.ClassifyReader(experiment.Options{Out: out, Ctx: ctx}, r, *block, *scheme)
}

func pctf(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

func cmdProtocols(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("protocols", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload name (see 'list')")
	file := fs.String("trace", "", "packed trace file (see 'trace pack'; alternative to -workload)")
	block := fs.Int("block", 64, "block size in bytes")
	protocols := fs.String("protocols", "", "comma-separated protocol subset (default all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := mem.NewGeometry(*block)
	if err != nil {
		return err
	}
	protos := splitList(*protocols)
	if len(protos) == 0 {
		protos = coherence.Protocols
	}
	r, err := openTrace(*workloadName, *file)
	if err != nil {
		return err
	}
	sims := make([]coherence.Simulator, len(protos))
	consumers := make([]trace.Consumer, len(protos))
	for i, name := range protos {
		sim, err := coherence.New(name, r.NumProcs(), g)
		if err != nil {
			trace.CloseReader(r) //nolint:errcheck // error path cleanup
			return err
		}
		sims[i] = sim
		consumers[i] = sim
	}
	if err := trace.DriveContext(ctx, r, consumers...); err != nil {
		return err
	}
	tb := report.NewTable("protocol", "misses", "miss%", "TRUE%", "COLD%", "FALSE%", "invalidations", "upgrades", "writethroughs")
	for _, sim := range sims {
		res := sim.Finish()
		c := res.Counts
		tb.Rowf(res.Protocol, res.Misses,
			pctf(res.MissRate()),
			pctf(core.Rate(c.PTS, res.DataRefs)),
			pctf(core.Rate(c.Cold(), res.DataRefs)),
			pctf(core.Rate(c.PFS, res.DataRefs)),
			res.Invalidations, res.Upgrades, res.WriteThroughs)
	}
	tb.Fprint(out)
	return nil
}
