package core

import (
	"repro/internal/obs"
)

// Per-scheme classified-reference counters, bumped once per classifier
// Finish (one atomic add per run, nothing on the per-reference path).
// Every cell replays its whole trace once, so the per-scheme totals are
// invariant across -j — they are the "refs" leg of the metric-determinism
// test.
var (
	mOursRefs      = obs.Default.Counter(obs.NameOursRefs)
	mEggersRefs    = obs.Default.Counter(obs.NameEggersRefs)
	mTorrellasRefs = obs.Default.Counter(obs.NameTorrellasRefs)
)
