package perfbench

import "strings"

// The canonical phases every per-phase breakdown reports, in rendering
// order. Every BENCH_*.json carries all of them (zero when unsampled) so
// the report shape is stable across hosts and runs.
//
//   - generation: the synthetic workload generators (internal/workload).
//   - replay:     reference delivery — batch pumps, slice readers and
//     the text format (internal/trace).
//   - classify:   the classifiers, schedules, finite caches and their
//     dense tables (internal/core, coherence, finite, dense, timing).
//   - render:     table and chart rendering (internal/report).
//   - runtime:    Go runtime work with no repro frame on the stack
//     (GC workers, scheduler).
//   - other:      everything else (harness overhead, experiment drivers,
//     sweep orchestration).
var Phases = []string{
	"generation", "replay", "classify", "render", "runtime", "other",
}

// phaseRule maps a function-name fragment to a phase. Rules are checked in
// order per frame; the first match of the leaf-most matching frame wins.
type phaseRule struct {
	substr string
	phase  string
}

// phaseRules attribute a frame by its package prefix.
var phaseRules = []phaseRule{
	{"repro/internal/workload.", "generation"},
	{"repro/internal/trace.", "replay"},
	{"repro/internal/core.", "classify"},
	{"repro/internal/coherence.", "classify"},
	{"repro/internal/finite.", "classify"},
	{"repro/internal/dense.", "classify"},
	{"repro/internal/timing.", "classify"},
	{"repro/internal/report.", "render"},
}

// phaseOfFrame returns the phase of one stack frame, or "" when the frame
// belongs to no phase.
func phaseOfFrame(fn string) string {
	if !strings.Contains(fn, "repro/") {
		return ""
	}
	for _, r := range phaseRules {
		if strings.Contains(fn, r.substr) {
			return r.phase
		}
	}
	return ""
}

// PhaseOfStack attributes one sample stack (leaf first) to a phase: the
// leaf-most frame with a phase wins, so runtime internals (memmove,
// mallocgc) attribute to the repro caller that incurred them. Stacks with
// no repro frame split into "runtime" (leaf in the Go runtime: GC workers,
// scheduler) and "other" (harness and test overhead).
func PhaseOfStack(stack []string) string {
	for _, fn := range stack {
		if ph := phaseOfFrame(fn); ph != "" {
			return ph
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.") {
			return "runtime"
		}
	}
	return "other"
}

// Breakdown sums a profile's CPU sample values by phase. The returned map
// holds nanoseconds (or the profile's default unit) per phase, with every
// canonical phase present; total is the sum over all samples.
func Breakdown(p *Profile) (byPhase map[string]int64, total int64) {
	byPhase = make(map[string]int64, len(Phases))
	for _, ph := range Phases {
		byPhase[ph] = 0
	}
	vi := p.CPUValueIndex()
	if vi < 0 {
		return byPhase, 0
	}
	for _, s := range p.Samples {
		if vi >= len(s.Values) {
			continue
		}
		v := s.Values[vi]
		byPhase[PhaseOfStack(p.FuncStack(s))] += v
		total += v
	}
	return byPhase, total
}

// Percentages converts a Breakdown into per-phase percentages of total,
// with every canonical phase present. A zero total yields all zeros.
func Percentages(byPhase map[string]int64, total int64) map[string]float64 {
	out := make(map[string]float64, len(Phases))
	for _, ph := range Phases {
		if total > 0 {
			out[ph] = 100 * float64(byPhase[ph]) / float64(total)
		} else {
			out[ph] = 0
		}
	}
	return out
}
