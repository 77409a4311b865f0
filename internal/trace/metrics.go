package trace

import (
	"repro/internal/obs"
)

// Metric handles for the replay hot path, resolved once at package init so
// Drive/Collect pay only pre-resolved atomic adds — a handful per
// 1024-reference batch, never per reference.
var (
	mDriveRefs      = obs.Default.Counter(obs.NameDriveRefs)
	mDriveBatches   = obs.Default.Counter(obs.NameDriveBatches)
	mDriveBatchSize = obs.Default.Histogram(obs.NameDriveBatchSize, batchSizeBounds)
	mDriveCloseErrs = obs.Default.Counter(obs.NameDriveCloseErrs)
	mCollectRefs    = obs.Default.Counter(obs.NameCollectRefs)
)

// batchSizeBounds covers the delivered-batch spectrum up to driveBatch;
// anything larger lands in the overflow bucket.
var batchSizeBounds = []uint64{1, 8, 64, 256, 512, driveBatch}
