package coherence

import (
	"repro/internal/obs"
)

// Protocol-simulation counters, bumped once per simulator Finish via
// base.result() (every protocol funnels through it). Every simulator
// replays its whole trace once, so both totals are invariant across -j.
var (
	mCoherenceRefs = obs.Default.Counter(obs.NameCoherenceRefs)
	mCoherenceMiss = obs.Default.Counter(obs.NameCoherenceMiss)
)
