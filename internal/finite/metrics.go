package finite

import (
	"repro/internal/obs"
)

// Data references classified under the finite-cache model, added once per
// classifier Finish. Invariant across -j for the same reason the core
// counters are: each cell classifies its whole trace once.
var mFiniteRefs = obs.Default.Counter(obs.NameFiniteRefs)
