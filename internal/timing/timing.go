// Package timing turns protocol miss behavior into execution time. The
// paper's introduction frames the whole problem in terms of processor
// blocking ("the processor blocking time during a memory request is called
// the penalty of the request") and motivates invalidation scheduling by the
// difficulty of hiding load miss latencies; this model quantifies that:
// each data reference costs one cycle, each miss blocks the processor for a
// penalty, synchronization has a base cost, and barriers (phase markers)
// align the processors to the slowest one. Store/upgrade latencies are
// hidden by default, as under the relaxed consistency models the paper
// assumes ("invalidation penalties can be easily eliminated through more
// aggressive consistency models").
package timing

import (
	"context"
	"fmt"
	"io"

	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Model holds the cost parameters in processor cycles.
type Model struct {
	// RefCycles is the cost of any data reference that hits (the
	// paper's perfect-memory baseline charges 1).
	RefCycles uint64
	// MissPenalty is the additional blocking time of a miss.
	MissPenalty uint64
	// SyncCycles is the base cost of an acquire or release.
	SyncCycles uint64
	// UpgradePenalty is the blocking time of an ownership upgrade;
	// 0 under relaxed consistency (stores are buffered and hidden).
	UpgradePenalty uint64
}

// DefaultModel returns a memory system with a 30-cycle miss penalty —
// the ballpark of the paper's era — over a 1-cycle processor.
func DefaultModel() Model {
	return Model{RefCycles: 1, MissPenalty: 30, SyncCycles: 3}
}

// Times reports the modeled execution of one protocol run.
type Times struct {
	Protocol string
	// Cycles is the parallel execution time: the slowest processor,
	// with barrier alignment at every phase boundary.
	Cycles uint64
	// BusyCycles is the total work (all processors' cycles summed),
	// excluding barrier waiting.
	BusyCycles uint64
	// StallCycles is the total time processors spent blocked on misses.
	StallCycles uint64
	// PerProc is each processor's busy time.
	PerProc []uint64
	// Result is the underlying protocol result.
	Result coherence.Result
}

// Utilization returns busy time over total processor-time.
func (t Times) Utilization() float64 {
	total := t.Cycles * uint64(len(t.PerProc))
	if total == 0 {
		return 0
	}
	return float64(t.BusyCycles) / float64(total)
}

// CyclesPerRef returns parallel cycles per data reference.
func (t Times) CyclesPerRef() float64 {
	if t.Result.DataRefs == 0 {
		return 0
	}
	return float64(t.Cycles) / float64(t.Result.DataRefs)
}

// timingCheckEvery is the cancellation-check period of the replay loop, in
// references: the same batch granularity as the trace.Drive pump.
const timingCheckEvery = 1024

// missCounter is satisfied by every coherence simulator.
type missCounter interface {
	MissCount() uint64
	UpgradeCount() uint64
}

// Run replays a trace through the named protocol and models each
// processor's blocking time under m. Phase markers act as barriers: every
// processor advances to the slowest one's clock. Times.Result carries the
// protocol's miss split.
func Run(protocol string, r trace.Reader, g mem.Geometry, m Model) (Times, error) {
	return RunContext(context.Background(), protocol, r, g, m, true)
}

// RunContext is Run with a cancellation context, observed once every
// timingCheckEvery references so the per-reference accounting loop stays
// cheap. A reader error other than io.EOF aborts the run and propagates
// (Run used to present such truncated replays as complete). Without split
// the simulator is rate-only (see coherence.RatesOnly): the times are the
// same, and Times.Result.Counts is zero.
func RunContext(ctx context.Context, protocol string, r trace.Reader, g mem.Geometry, m Model, split bool) (Times, error) {
	sim, err := coherence.New(protocol, r.NumProcs(), g)
	if err != nil {
		trace.CloseReader(r) //nolint:errcheck // error path cleanup
		return Times{}, err
	}
	if !split {
		sim = coherence.RatesOnly(sim)
	}
	counter, ok := sim.(missCounter)
	if !ok {
		trace.CloseReader(r) //nolint:errcheck // error path cleanup
		return Times{}, fmt.Errorf("timing: protocol %s does not expose miss counts", protocol)
	}

	procs := r.NumProcs()
	cycles := make([]uint64, procs)
	var stall uint64
	var prevMisses, prevUpgrades uint64

	// charge adds the blocking of any misses and upgrades recorded since
	// the previous reference to processor p's clock.
	charge := func(p int) {
		if now := counter.MissCount(); now != prevMisses {
			delta := (now - prevMisses) * m.MissPenalty
			cycles[p] += delta
			stall += delta
			prevMisses = now
		}
		if now := counter.UpgradeCount(); now != prevUpgrades {
			delta := (now - prevUpgrades) * m.UpgradePenalty
			cycles[p] += delta
			stall += delta
			prevUpgrades = now
		}
	}

	defer trace.CloseReader(r) //nolint:errcheck // best-effort close after drain
	var refsReplayed uint64
	for {
		if refsReplayed%timingCheckEvery == 0 {
			if e := ctx.Err(); e != nil {
				mTimingRefs.Add(refsReplayed)
				return Times{}, e
			}
		}
		ref, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			mTimingRefs.Add(refsReplayed)
			return Times{}, err
		}
		refsReplayed++
		if ref.Kind == trace.Phase {
			// Barrier: everyone waits for the slowest.
			var max uint64
			for _, c := range cycles {
				if c > max {
					max = c
				}
			}
			for p := range cycles {
				cycles[p] = max
			}
			sim.Ref(ref)
			continue
		}
		sim.Ref(ref)
		p := int(ref.Proc)
		switch {
		case ref.Kind.IsData():
			cycles[p] += m.RefCycles
			// Protocols record at most one miss per data
			// reference; release-time flush misses are charged at
			// the release below.
			charge(p)
		case ref.Kind.IsSync():
			cycles[p] += m.SyncCycles
			charge(p)
		}
	}

	mTimingRefs.Add(refsReplayed)
	res := sim.Finish()
	t := Times{
		Protocol: protocol,
		PerProc:  cycles,
		Result:   res,
	}
	for _, c := range cycles {
		t.BusyCycles += c
		if c > t.Cycles {
			t.Cycles = c
		}
	}
	t.StallCycles = stall
	return t, nil
}
