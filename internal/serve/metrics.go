package serve

import "repro/internal/obs"

// Serving-layer metric handles, resolved once at init like the trace
// pump's. Everything here is timing-class: job latency and queue depth are
// wall-clock observations, and even the counters fire from concurrent
// handler goroutines whose interleaving is scheduler-dependent — none of it
// may ever join the deterministic section.
var (
	mAdmitted  = obs.Default.TimingCounter(obs.NameServeAdmitted)
	mRejected  = obs.Default.TimingCounter(obs.NameServeRejected)
	mCompleted = obs.Default.TimingCounter(obs.NameServeCompleted)
	mFailed    = obs.Default.TimingCounter(obs.NameServeFailed)
	mPanics    = obs.Default.TimingCounter(obs.NameServePanics)
	mQueue     = obs.Default.Gauge(obs.NameServeQueueDepth)
	mInflight  = obs.Default.Gauge(obs.NameServeInflight)
	mForced    = obs.Default.TimingCounter(obs.NameServeDrainForced)

	// mLatency buckets job wall time in nanoseconds from 1ms to 1min;
	// quick table jobs land at the bottom, full sweeps at the top.
	mLatency = obs.Default.TimingHistogram(obs.NameServeJobLatencyNs, latencyBounds)
)

var latencyBounds = []uint64{
	1e6, 4e6, 16e6, 64e6, 250e6, 1e9, 4e9, 16e9, 60e9,
}
