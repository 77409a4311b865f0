package coherence

// Behavioral tests: small hand-built scenarios pinning each protocol's
// defining mechanism — word invalidation for MIN/WBWI, the cost of
// ownership, receive delay until acquire for RD, send delay until release
// for SD/SRD, and the adversarial schedule for MAX.

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

var (
	g8  = mem.MustGeometry(8)  // 2 words
	g16 = mem.MustGeometry(16) // 4 words
)

func run(t *testing.T, name string, tr *trace.Trace, g mem.Geometry) Result {
	t.Helper()
	res, err := RunWith(name, tr.Reader(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != res.Counts.Total() {
		t.Fatalf("%s: miss counter %d != classified total %d", name, res.Misses, res.Counts.Total())
	}
	return res
}

func TestNewUnknownProtocol(t *testing.T) {
	if _, err := New("XYZ", 2, g8); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	for _, name := range Protocols {
		sim, err := New(name, 2, g8)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if sim.Name() != name {
			t.Errorf("Name() = %q, want %q", sim.Name(), name)
		}
	}
}

func TestOTFBasics(t *testing.T) {
	tr := trace.New(2,
		trace.L(0, 0), // P0 cold miss
		trace.L(0, 0), // hit
		trace.L(1, 0), // P1 cold miss
		trace.S(0, 0), // upgrade, invalidates P1
		trace.L(1, 0), // P1 misses again (PTS)
	)
	res := run(t, "OTF", tr, g8)
	if res.Misses != 3 {
		t.Errorf("misses = %d, want 3", res.Misses)
	}
	if res.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", res.Invalidations)
	}
	if res.Upgrades != 1 {
		t.Errorf("upgrades = %d, want 1", res.Upgrades)
	}
	if res.Counts.PTS != 1 || res.Counts.Cold() != 2 {
		t.Errorf("decomposition = %+v", res.Counts)
	}
	if res.DataRefs != 5 {
		t.Errorf("dataRefs = %d, want 5", res.DataRefs)
	}
}

// MIN invalidates at word grain: a store to word 1 must not disturb a
// sharer that only uses word 0 (the false-sharing miss is eliminated), but
// an access to word 1 itself must miss.
func TestMINWordInvalidation(t *testing.T) {
	tr := trace.New(2,
		trace.L(0, 0), // P0 cold
		trace.L(1, 1), // P1 cold (same block)
		trace.S(0, 1), // P0 writes word 1 -> word invalidation to P1
		trace.L(1, 0), // P1 reads word 0: HIT (no false sharing)
		trace.L(1, 1), // P1 reads word 1: miss (essential)
	)
	res := run(t, "MIN", tr, g8)
	if res.Misses != 3 {
		t.Errorf("misses = %d, want 3 (2 cold + 1 PTS)", res.Misses)
	}
	if res.Counts.PFS != 0 {
		t.Errorf("MIN produced false sharing: %+v", res.Counts)
	}
	if res.WriteThroughs != 1 {
		t.Errorf("write-throughs = %d, want 1", res.WriteThroughs)
	}
	if res.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1 (one sharer, one word)", res.Invalidations)
	}
	// On this trace the refetch also carries word 1's new value, which P1
	// reads next, so even OTF's miss is essential and the totals agree.
	otf := run(t, "OTF", tr, g8)
	if otf.Misses != 3 || otf.Counts.PFS != 0 {
		t.Errorf("OTF = %+v, want 3 essential misses", otf.Counts)
	}
}

// When the sharer never touches the modified word, OTF takes a useless miss
// that MIN eliminates entirely.
func TestMINEliminatesUselessMiss(t *testing.T) {
	tr := trace.New(2,
		trace.L(0, 0), // P0 cold
		trace.L(1, 1), // P1 cold
		trace.S(0, 1), // P0 modifies word 1
		trace.L(1, 0), // P1 only ever reads word 0 afterwards
		trace.L(1, 0),
	)
	min := run(t, "MIN", tr, g8)
	otf := run(t, "OTF", tr, g8)
	if min.Misses != 2 {
		t.Errorf("MIN misses = %d, want 2 (the invalidation is never triggered)", min.Misses)
	}
	if otf.Misses != 3 || otf.Counts.PFS != 1 {
		t.Errorf("OTF = %+v (misses %d), want one useless miss", otf.Counts, otf.Misses)
	}
}

// MIN's refetch brings a fresh copy: pending invalidations on other words
// are satisfied by the refetch, so only one miss per pending epoch.
func TestMINRefetchClearsAllPendingWords(t *testing.T) {
	tr := trace.New(2,
		trace.L(1, 0), // P1 cold
		trace.S(0, 0), // invalidate word 0 for P1
		trace.S(0, 1), // invalidate word 1 for P1
		trace.L(1, 0), // P1 miss, refetch clears both pendings
		trace.L(1, 1), // hit: word 1's new value came with the refetch
	)
	res := run(t, "MIN", tr, g16)
	if res.Misses != 3 { // P1 cold, P0 cold (store allocate), P1 refetch
		t.Errorf("misses = %d, want 3", res.Misses)
	}
}

// WBWI pays the cost of ownership: a store to a non-owned copy with a
// pending invalidation on ANY word of the block misses, where MIN keeps
// writing through.
func TestWBWIOwnershipCost(t *testing.T) {
	tr := trace.New(2,
		trace.L(1, 0), // P1 cold, gets the block
		trace.S(0, 1), // P0 cold store; word-invalidates word 1 for P1
		trace.S(1, 0), // P1 stores word 0: pending on word 1 -> ownership miss
	)
	wbwi := run(t, "WBWI", tr, g8)
	min := run(t, "MIN", tr, g8)
	if min.Misses != 2 {
		t.Errorf("MIN misses = %d, want 2 (P1 never touches word 1)", min.Misses)
	}
	if wbwi.Misses != 3 {
		t.Errorf("WBWI misses = %d, want 3 (ownership cost)", wbwi.Misses)
	}
}

// Without pending invalidations, WBWI ownership is a free upgrade.
func TestWBWIUpgradeFree(t *testing.T) {
	tr := trace.New(2,
		trace.L(0, 0), // P0 cold
		trace.S(0, 0), // first ownership on own clean copy: upgrade
		trace.L(1, 1), // P1 cold (word 1 pending? no: store was before load)
	)
	res := run(t, "WBWI", tr, g8)
	if res.Misses != 2 {
		t.Errorf("misses = %d, want 2", res.Misses)
	}
	if res.Upgrades != 1 {
		t.Errorf("upgrades = %d, want 1", res.Upgrades)
	}
}

// WBWI, like MIN, lets a sharer touch an invalidated word and miss on it.
func TestWBWILoadOfPendingWordMisses(t *testing.T) {
	tr := trace.New(2,
		trace.L(1, 0),
		trace.S(0, 0), // P0 store word 0: cold miss + word-inval to P1
		trace.L(1, 1), // P1 reads word 1: hit
		trace.L(1, 0), // P1 reads word 0: miss
	)
	res := run(t, "WBWI", tr, g8)
	if res.Misses != 3 {
		t.Errorf("misses = %d, want 3", res.Misses)
	}
}

// RD: the receiver keeps using its stale copy until its next acquire.
func TestRDDelaysInvalidationUntilAcquire(t *testing.T) {
	tr := trace.New(2,
		trace.L(1, 0),  // P1 cold
		trace.S(0, 0),  // P0 cold store; invalidation buffered at P1
		trace.L(1, 0),  // P1 still hits on the stale copy
		trace.L(1, 1),  // still hits
		trace.A(1, 99), // P1 acquires: buffered invalidation applied
		trace.L(1, 0),  // now P1 misses
	)
	res := run(t, "RD", tr, g8)
	if res.Misses != 3 {
		t.Errorf("misses = %d, want 3", res.Misses)
	}
	// Under OTF the load at T2 would already miss.
	otf := run(t, "OTF", tr, g8)
	if otf.Misses != 3 {
		t.Errorf("OTF misses = %d, want 3", otf.Misses)
	}
}

// RD: taking ownership on a copy with a buffered invalidation is a miss.
func TestRDOwnershipOnStaleCopyMisses(t *testing.T) {
	tr := trace.New(2,
		trace.L(1, 0),
		trace.S(0, 1), // invalidation buffered at P1
		trace.S(1, 0), // P1 stores: stale copy -> ownership miss
	)
	res := run(t, "RD", tr, g8)
	if res.Misses != 3 {
		t.Errorf("misses = %d, want 3", res.Misses)
	}
	// A store to a clean shared copy upgrades for free.
	clean := trace.New(2,
		trace.L(1, 0),
		trace.L(0, 0),
		trace.S(1, 0),
	)
	res = run(t, "RD", clean, g8)
	if res.Misses != 2 || res.Upgrades != 1 {
		t.Errorf("clean upgrade: misses=%d upgrades=%d, want 2 and 1", res.Misses, res.Upgrades)
	}
}

// SD: a non-owner's store is buffered; the sharers lose their copies only
// at the release, and stores to one block combine into one ownership action.
func TestSDDelaysSendUntilRelease(t *testing.T) {
	tr := trace.New(2,
		trace.L(1, 0),  // P1 cold
		trace.L(0, 0),  // P0 cold
		trace.S(0, 0),  // P0 buffers the store (non-owner)
		trace.S(0, 1),  // combines into the same buffered block
		trace.L(1, 0),  // P1 still hits: invalidation not sent yet
		trace.R(0, 99), // P0 releases: P1 invalidated now
		trace.L(1, 0),  // P1 misses
	)
	res := run(t, "SD", tr, g8)
	if res.Misses != 3 {
		t.Errorf("misses = %d, want 3", res.Misses)
	}
	if res.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1 (two stores combined)", res.Invalidations)
	}
}

// SD: the owner's stores complete without delay.
func TestSDOwnerStoresImmediate(t *testing.T) {
	tr := trace.New(2,
		trace.S(0, 0),  // P0 cold store, buffered (no owner yet)
		trace.R(0, 99), // flush: P0 becomes owner
		trace.L(1, 0),  // P1 cold
		trace.S(0, 1),  // owner store: invalidates P1 immediately
		trace.L(1, 0),  // P1 misses
	)
	res := run(t, "SD", tr, g8)
	if res.Misses != 3 {
		t.Errorf("misses = %d, want 3", res.Misses)
	}
}

// SD: a buffered store whose copy is invalidated before the release must
// refetch at the release.
func TestSDFlushAfterLosingCopyMisses(t *testing.T) {
	tr := trace.New(3,
		trace.S(0, 0),  // P0 buffers
		trace.S(1, 0),  // P1 buffers too (both have copies: store-miss allocate)
		trace.R(0, 99), // P0 flushes: owns, invalidates P1's copy
		trace.R(1, 99), // P1 flushes: copy gone -> miss, then owns
	)
	res := run(t, "SD", tr, g8)
	// P0 store-miss, P1 store-miss, P1 flush-miss.
	if res.Misses != 3 {
		t.Errorf("misses = %d, want 3", res.Misses)
	}
}

// SRD: invalidations are both send-delayed and receive-delayed.
func TestSRDDelaysBothEnds(t *testing.T) {
	tr := trace.New(2,
		trace.L(1, 0),
		trace.S(0, 0),  // buffered at sender
		trace.L(1, 0),  // hit
		trace.A(1, 99), // acquire: nothing pending yet (send not flushed)
		trace.L(1, 0),  // still a hit
		trace.R(0, 99), // P0 release: invalidation now buffered at P1
		trace.L(1, 0),  // STILL a hit: P1 has not acquired since
		trace.A(1, 99), // P1 acquire: invalidation applied
		trace.L(1, 0),  // miss
	)
	res := run(t, "SRD", tr, g8)
	if res.Misses != 3 {
		t.Errorf("misses = %d, want 3", res.Misses)
	}
}

// SRD release: taking ownership on a copy carrying a buffered invalidation
// costs a miss.
func TestSRDOwnershipOnPendingCopyMisses(t *testing.T) {
	tr := trace.New(2,
		trace.L(1, 0),
		trace.S(0, 0),  // P0 buffers (cold store miss)
		trace.R(0, 99), // flush: pending invalidation at P1
		trace.S(1, 1),  // P1 buffers a store on its pending copy
		trace.R(1, 99), // flush: pending -> ownership miss for P1
	)
	res := run(t, "SRD", tr, g8)
	// P1 cold, P0 store-miss, P1 ownership miss at its release.
	if res.Misses != 3 {
		t.Errorf("misses = %d, want 3", res.Misses)
	}
}

// MAX creates ping-pong OTF avoids: with two stores buffered inside one
// release window, the adversary can kill the reader's copy twice.
func TestMAXExceedsOTF(t *testing.T) {
	tr := trace.New(2,
		trace.L(1, 0), // P1 cold
		trace.S(0, 0), // P0 cold store; credit 1 against P1
		trace.S(0, 0), // credit 2 (still before P0's release)
		trace.L(1, 0), // P1: adversary fires credit 1 -> miss
		trace.L(1, 0), // adversary fires credit 2 -> miss again
		trace.L(1, 0), // no credits left -> hit
		trace.R(0, 99),
	)
	max := run(t, "MAX", tr, g8)
	otf := run(t, "OTF", tr, g8)
	if otf.Misses != 3 { // P1 cold, P0 store, P1 one invalidation miss
		t.Errorf("OTF misses = %d, want 3", otf.Misses)
	}
	if max.Misses != 4 {
		t.Errorf("MAX misses = %d, want 4", max.Misses)
	}
}

// MAX deadline: credits unspent at the sender's release are performed then,
// so a later access still misses; but a schedule can never invalidate after
// the release.
func TestMAXDeadlineFiresAtRelease(t *testing.T) {
	tr := trace.New(2,
		trace.L(1, 0),
		trace.S(0, 0),  // credit against P1
		trace.R(0, 99), // deadline: P1's copy invalidated here
		trace.L(1, 0),  // miss
		trace.L(1, 0),  // hit: no credits remain after the release
	)
	res := run(t, "MAX", tr, g8)
	if res.Misses != 3 {
		t.Errorf("misses = %d, want 3", res.Misses)
	}
}

// A store by the copy's own processor must never spend a credit against
// itself, and the upgrade is counted.
func TestMAXOwnStoreKeepsCopy(t *testing.T) {
	tr := trace.New(2,
		trace.S(0, 0), // P0 cold store
		trace.S(0, 0), // own credit must not kill own copy: hit
		trace.L(0, 0), // hit
	)
	res := run(t, "MAX", tr, g8)
	if res.Misses != 1 {
		t.Errorf("misses = %d, want 1", res.Misses)
	}
}

// The adversary must find a credit whose only live sender is processor 63,
// the highest a block's sender mask can hold, including after an earlier
// sender's release left the block's credit books allocated but empty.
func TestMAXCreditFromSender63(t *testing.T) {
	tr := trace.New(64,
		trace.L(0, 0),   // P0 cold
		trace.S(62, 0),  // P62 cold store: credit against P0
		trace.R(62, 99), // deadline: P0's copy invalidated, no live credit left
		trace.L(0, 0),   // miss
		trace.S(63, 0),  // P63 cold store: the only live credit
		trace.L(0, 0),   // adversary spends P63's credit -> miss
		trace.L(0, 0),   // hit: that credit is spent
		trace.L(62, 0),  // P62's copy: P63's credit -> miss
		trace.S(63, 0),  // own copy: hit, second credit
		trace.R(63, 99), // deadline: P0's and P62's second credits
		trace.L(0, 0),   // miss
	)
	res := run(t, "MAX", tr, g8)
	if res.Misses != 7 || res.Invalidations != 5 || res.Upgrades != 0 {
		t.Errorf("misses %d, invalidations %d, upgrades %d; want 7, 5, 0",
			res.Misses, res.Invalidations, res.Upgrades)
	}
}

func TestSyncRefsAreNotDataRefs(t *testing.T) {
	tr := trace.New(2,
		trace.L(0, 0), trace.A(0, 50), trace.R(0, 50), trace.P(),
	)
	for _, name := range Protocols {
		res := run(t, name, tr, g8)
		if res.DataRefs != 1 {
			t.Errorf("%s: dataRefs = %d, want 1", name, res.DataRefs)
		}
	}
}
