package experiment

import (
	"errors"
	"fmt"
	"strings"
)

// JobKinds lists the experiment names RunNamed accepts — the job-spec
// surface the serving layer exposes. Rendering-parameter experiments that
// need more than a block size (penalty's timing model, the ablations'
// -what) stay CLI-only.
var JobKinds = []string{
	"table1", "table2", "fig5", "fig6", "large", "traffic",
	"compare", "hotspots", "phases", "finite",
}

// ErrUnknownJob marks a job-spec experiment name RunNamed does not map.
// The serving layer turns it into a client error (HTTP 400) rather than a
// server failure.
var ErrUnknownJob = errors.New("experiment: unknown experiment")

// RunNamed maps a job-spec experiment name onto its driver and runs it
// under o. block carries the single-block parameter of the experiments
// that take one (fig6, compare, hotspots, phases, finite); 0 means each
// experiment's paper default. The rendered bytes on o.Out are exactly what
// the equivalent CLI subcommand prints — the serving layer's differential
// suite depends on that.
func RunNamed(kind string, o Options, block int) error {
	blk := func(def int) int {
		if block > 0 {
			return block
		}
		return def
	}
	switch kind {
	case "table1":
		return Table1(o)
	case "table2":
		return Table2(o)
	case "fig5":
		return Fig5(o)
	case "fig6":
		return Fig6(o, blk(64))
	case "large":
		return Large(o)
	case "traffic":
		return Traffic(o)
	case "compare":
		return Compare(o, blk(64))
	case "hotspots":
		return Hotspots(o, blk(64))
	case "phases":
		return Phases(o, blk(64), 10)
	case "finite":
		return FiniteSweep(o, blk(64), 4)
	}
	return fmt.Errorf("%w %q (want one of %s)", ErrUnknownJob, kind, strings.Join(JobKinds, ", "))
}
