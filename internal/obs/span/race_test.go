package span

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentTracksRace hammers the recorder from many goroutines —
// each with its own Acquired track, plus shared span-id allocation and
// track recycling — and checks the snapshot is sane. Run under -race this
// is the recorder's data-race suite: single-writer tracks, the locked
// freelist and the atomic id sequences are the only sharing.
func TestConcurrentTracksRace(t *testing.T) {
	startForTest(t, 256)
	const workers = 8
	const rounds = 4
	const spansPerWorker = 300

	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tr := Acquiref("worker", w)
				defer Release(tr)
				for i := 0; i < spansPerWorker; i++ {
					sp := tr.Begin(OpCell, Fields{Cell: int32(i)})
					inner := tr.Begin(OpDrive, Fields{})
					tr.Emit(OpCellWait, Fields{Cell: int32(i)}, 0)
					inner.End()
					sp.End()
				}
			}(w)
		}
		wg.Wait()
	}

	snap := StopRecording()
	if snap == nil {
		t.Fatal("no snapshot")
	}
	// Tracks are recycled by label: exactly main + workers tracks exist.
	if got, want := len(snap.Tracks), workers+1; got != want {
		t.Fatalf("got %d tracks, want %d (recycling failed)", got, want)
	}
	var total uint64
	for _, ts := range snap.Tracks {
		total += uint64(len(ts.Spans)) + ts.Lost
	}
	// 3 records per iteration (2 spans + 1 emitted span).
	if want := uint64(workers * rounds * spansPerWorker * 3); total != want {
		t.Fatalf("retained+lost = %d records, want %d", total, want)
	}
}

// TestNoGoroutineLeak checks the recorder itself spawns nothing: start,
// record, stop, and the goroutine count returns to baseline.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	startForTest(t, 0)
	tr := Acquire("w")
	tr.Begin(OpCell, Fields{}).End()
	Release(tr)
	StopRecording()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after stop", before, runtime.NumGoroutine())
}
