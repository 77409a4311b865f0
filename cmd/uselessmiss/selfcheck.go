package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

// cmdSelfcheck verifies the paper's structural identities on any trace — a
// named workload or a user-supplied trace file — so that externally
// captured traces can be validated before being analyzed:
//
//  1. the three classifications agree on the total miss count;
//  2. ours and Eggers' agree on every cold miss;
//  3. every Eggers true-sharing miss is a PTS miss of ours;
//  4. the OTF simulator's decomposition equals the classification;
//  5. MIN's miss count equals the essential miss count, with no false
//     sharing (the paper's §2.2 headline);
//  6. MIN <= OTF <= MAX.
func cmdSelfcheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload name (see 'list')")
	file := fs.String("trace", "", "packed trace file (see 'trace pack'; alternative to -workload)")
	block := fs.Int("block", 64, "block size in bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := mem.NewGeometry(*block)
	if err != nil {
		return err
	}

	// The trace is replayed once per pass: workloads regenerate and packed
	// files are read again.
	reader := func() (trace.Reader, error) { return openTrace(*workloadName, *file) }
	r, err := reader()
	if err != nil {
		return err
	}
	procs := r.NumProcs()
	ours := core.NewClassifier(procs, g)
	eggers := core.NewEggers(procs, g)
	torr := core.NewTorrellas(procs, g)
	if err := trace.Drive(r, ours, eggers, torr); err != nil {
		return err
	}
	oursC, eggersC, torrC := ours.Finish(), eggers.Finish(), torr.Finish()

	runProto := func(name string) (coherence.Result, error) {
		r, err := reader()
		if err != nil {
			return coherence.Result{}, err
		}
		return coherence.RunWith(name, r, g)
	}
	otf, err := runProto("OTF")
	if err != nil {
		return err
	}
	min, err := runProto("MIN")
	if err != nil {
		return err
	}
	max, err := runProto("MAX")
	if err != nil {
		return err
	}

	failures := 0
	check := func(name string, ok bool, detail string) {
		verdict := "ok"
		if !ok {
			verdict = "FAIL"
			failures++
		}
		fmt.Fprintf(out, "%-44s %-4s %s\n", name, verdict, detail)
	}
	check("classifications agree on the miss total",
		oursC.Total() == eggersC.Total() && oursC.Total() == torrC.Total(),
		fmt.Sprintf("ours=%d eggers=%d torrellas=%d", oursC.Total(), eggersC.Total(), torrC.Total()))
	check("cold misses identical (ours vs eggers)",
		oursC.Cold() == eggersC.Cold,
		fmt.Sprintf("%d vs %d", oursC.Cold(), eggersC.Cold))
	check("eggers TSM within ours PTS",
		eggersC.True <= oursC.PTS,
		fmt.Sprintf("%d <= %d", eggersC.True, oursC.PTS))
	check("OTF decomposition equals the classification",
		otf.Counts == oursC,
		fmt.Sprintf("%+v", otf.Counts))
	check("MIN reaches the essential miss count",
		min.Misses == oursC.Essential() && min.Counts.PFS == 0,
		fmt.Sprintf("MIN=%d essential=%d PFS=%d", min.Misses, oursC.Essential(), min.Counts.PFS))
	check("MIN <= OTF <= MAX",
		min.Misses <= otf.Misses && otf.Misses <= max.Misses,
		fmt.Sprintf("%d <= %d <= %d", min.Misses, otf.Misses, max.Misses))

	if failures > 0 {
		return fmt.Errorf("%d identity check(s) failed", failures)
	}
	fmt.Fprintln(out, "all identities hold")
	return nil
}
