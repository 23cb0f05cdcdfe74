package transport

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// startFaultyPair starts two real stores wired through per-store fault
// injectors (either may be nil), with manual ticks and per-tick digest
// advertisements — the repair tests' standard rig. The returned stores
// are s[0] ("r-00") and s[1] ("r-01").
func startFaultyPair(t *testing.T, template StoreConfig, faults [2]*Fault) [2]*Store {
	t.Helper()
	ids := [2]string{"r-00", "r-01"}
	var addrs [2]string
	var listeners [2]net.Listener
	for i := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	var stores [2]*Store
	for i := range stores {
		cfg := template
		cfg.ID = ids[i]
		cfg.Listener = listeners[i]
		cfg.Peers = map[string]string{ids[1-i]: addrs[1-i]}
		cfg.Nodes = ids[:]
		if faults[i] != nil {
			cfg.Dial = faults[i].Dialer(nil)
		}
		st, err := StartStore(cfg)
		if err != nil {
			t.Fatalf("start %s: %v", ids[i], err)
		}
		stores[i] = st
		t.Cleanup(func() { st.Close() })
	}
	return stores
}

// repairPairConfig is the template the repair tests share: one shard so
// every key is in the diverged shard, manual ticks, digests every tick.
func repairPairConfig() StoreConfig {
	return StoreConfig{
		Shards:      1,
		Factory:     protocol.NewDeltaBPRR(),
		ObjType:     func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery:   time.Hour, // ticks driven manually
		DigestEvery: 1,
	}
}

// loadIdentical applies the same GSet adds to both stores directly, so
// their states — and digests — are identical without any wire traffic.
// Keys are generated in sorted order (the per-object engine's sorted
// insert is amortized O(1) only then).
func loadIdentical(stores [2]*Store, n int) {
	for k := 0; k < n; k++ {
		op := workload.Add(fmt.Sprintf("k%07d", k), "v")
		stores[0].Update(op)
		stores[1].Update(op)
	}
}

// drainInto flushes a store's δ-buffers into the (black-holed) wire:
// two manual ticks clear the loss-intolerant plain-delta buffers, then
// the per-peer queues are drained so nothing leaks out after healing.
func drainInto(t *testing.T, s *Store) {
	t.Helper()
	s.SyncNow()
	s.SyncNow()
	deadline := time.Now().Add(10 * time.Second)
	for {
		queued := 0
		for _, ps := range s.Stats().Peers {
			queued += ps.Queued
		}
		if queued == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d frames still queued", s.ID(), queued)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitPairConverged polls until both stores hold wantKeys keys with
// equal digests.
func waitPairConverged(t *testing.T, stores [2]*Store, wantKeys int, timeout time.Duration) {
	t.Helper()
	if err := WaitConverged(stores[:], wantKeys, timeout, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWantStormDedup is the Want-storm regression test: a store
// receiving digest heartbeats faster than repair completes must issue
// exactly one outstanding repair request per diverged shard, dedup the
// rest, and still deliver each diverged range exactly once when the
// repair finally completes. Run under -race in CI, it also exercises
// the repair table's locking against concurrent heartbeats.
func TestWantStormDedup(t *testing.T) {
	const (
		sharedKeys = 600 // ≥ TreeRepairMinKeys: drill-down eligible
		storm      = 15
	)
	// Both directions black-holed while state is staged; r-01's outbound
	// stays dark through the storm so its drill-down query is lost and
	// the repair stays in flight.
	f0, f1 := NewFault(1), NewFault(2)
	f0.SetDropRate(1)
	f1.SetDropRate(1)
	cfg := repairPairConfig()
	cfg.RepairTimeout = 500 * time.Millisecond
	stores := startFaultyPair(t, cfg, [2]*Fault{f0, f1})
	s0, s1 := stores[0], stores[1]

	loadIdentical(stores, sharedKeys)
	drainInto(t, s0)
	drainInto(t, s1)
	// Diverge: one key exists only on s0, its deltas lost to the black
	// hole — only digest anti-entropy can see it.
	s0.Update(workload.Add("k-diverged", "v"))
	drainInto(t, s0)
	if got := s1.NumKeys(); got != sharedKeys {
		t.Fatalf("black hole leaked: s1 holds %d keys, want %d", got, sharedKeys)
	}

	// Heal s0's outbound only and storm heartbeats: each tick ships one
	// digest advertisement to s1, whose repair request cannot get out.
	f0.SetDropRate(0)
	for i := 0; i < storm; i++ {
		s0.SyncNow()
		// Wait for this heartbeat to be processed before the next, so
		// each is a distinct observation of the in-flight repair.
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := s1.Stats()
			if st.TreeRounds+st.DedupedWants >= i+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("heartbeat %d never processed: %+v", i, st)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	storStats := s1.Stats()
	if storStats.TreeRounds != 1 {
		t.Errorf("storm started %d drill-downs, want exactly 1", storStats.TreeRounds)
	}
	if storStats.DedupedWants != storm-1 {
		t.Errorf("DedupedWants = %d, want %d", storStats.DedupedWants, storm-1)
	}
	if storStats.WantShards != 0 {
		t.Errorf("storm issued %d flat shard wants, want 0", storStats.WantShards)
	}

	// Heal r-01, let the in-flight (lost) repair expire, and tick once
	// more: the retriggered drill-down now completes end to end.
	f1.SetDropRate(0)
	time.Sleep(600 * time.Millisecond) // > RepairTimeout
	s0.SyncNow()
	waitPairConverged(t, stores, sharedKeys+1, 30*time.Second)

	final0 := s0.Stats()
	if final0.RepairShards != 0 {
		t.Errorf("repair shipped %d full shards, want 0 (range repair only)", final0.RepairShards)
	}
	// One diverged key lives in exactly one leaf range, and that range
	// must have been delivered exactly once.
	if final0.RepairRanges != 1 {
		t.Errorf("RepairRanges = %d, want exactly 1 delivery for 1 diverged range", final0.RepairRanges)
	}
	if final0.RepairBytes <= 0 {
		t.Errorf("RepairBytes = %d, want > 0", final0.RepairBytes)
	}
}

// TestTreeRepairConvergence drills multiple diverged keys end to end:
// every diverged key reaches the peer, nothing ships as a full shard,
// and the served ranges match the diverged keys' distinct leaves.
func TestTreeRepairConvergence(t *testing.T) {
	const (
		sharedKeys   = 400
		divergedKeys = 5
	)
	f0, f1 := NewFault(3), NewFault(4)
	f0.SetDropRate(1)
	f1.SetDropRate(1)
	stores := startFaultyPair(t, repairPairConfig(), [2]*Fault{f0, f1})
	s0, s1 := stores[0], stores[1]

	loadIdentical(stores, sharedKeys)
	drainInto(t, s0)
	drainInto(t, s1)
	leaves := make(map[uint32]bool)
	for i := 0; i < divergedKeys; i++ {
		k := fmt.Sprintf("k-diverged-%d", i)
		leaves[treeLeafIdx(k)] = true
		s0.Update(workload.Add(k, "v"))
	}
	drainInto(t, s0)

	f0.SetDropRate(0)
	f1.SetDropRate(0)
	s0.SyncNow()
	waitPairConverged(t, stores, sharedKeys+divergedKeys, 30*time.Second)

	st0, st1 := s0.Stats(), s1.Stats()
	if st0.RepairShards != 0 {
		t.Errorf("repair shipped %d full shards, want 0", st0.RepairShards)
	}
	if st0.RepairRanges != len(leaves) {
		t.Errorf("RepairRanges = %d, want %d (one per diverged leaf)", st0.RepairRanges, len(leaves))
	}
	// The drill is log-depth: one query round per level plus the leaf
	// want, all initiated by the comparing store.
	if st1.TreeRounds < protocol.TreeDepth+1 {
		t.Errorf("TreeRounds = %d, want >= %d (levels + want)", st1.TreeRounds, protocol.TreeDepth+1)
	}
	for i := 0; i < divergedKeys; i++ {
		k := fmt.Sprintf("k-diverged-%d", i)
		if st := s1.Get(k); st == nil || st.IsBottom() {
			t.Errorf("diverged key %q missing on s1 after repair", k)
		}
	}
}

// TestSmallShardFlatRepair: below TreeRepairMinKeys a diverged shard is
// pulled whole — the drill-down's hash exchange would cost more than
// the shard — whether the shard is small or the threshold is raised above
// a large one. The repair table still dedups the flat Wants.
func TestSmallShardFlatRepair(t *testing.T) {
	for _, tc := range []struct{ keys, minKeys int }{
		{keys: 10, minKeys: defaultTreeMinKeys},
		{keys: 600, minKeys: 1000}, // over the default, under a raised one
	} {
		s := startSoloStore(t, 1)
		s.cfg.TreeRepairMinKeys = tc.minKeys
		for i := 0; i < tc.keys; i++ {
			s.Update(workload.Add(fmt.Sprintf("k%06d", i), "v"))
		}
		// A differing advertisement from an unknown peer: the reply is
		// dropped by the peer net, so the repair stays in flight.
		adv := encodeFrame(t, protocol.NewDigestMsg([]uint64{12345}, nil))
		for i := 0; i < 3; i++ {
			if err := s.deliver("peer", adv); err != nil {
				t.Fatalf("deliver: %v", err)
			}
		}
		st := s.Stats()
		if st.WantShards != 1 {
			t.Errorf("%d keys: WantShards = %d, want 1 (flat pull, deduped)", tc.keys, st.WantShards)
		}
		if st.TreeRounds != 0 {
			t.Errorf("%d keys: TreeRounds = %d, want 0 below TreeRepairMinKeys", tc.keys, st.TreeRounds)
		}
		if st.DedupedWants != 2 {
			t.Errorf("%d keys: DedupedWants = %d, want 2", tc.keys, st.DedupedWants)
		}
	}
}

// CycleDigestVec is one digest advertisement's use of the vector free
// list — fill, hand back — exported for TestCleanDigestPathNoAllocs in the
// external test package.
func (s *Store) CycleDigestVec() { s.putDigestVec(s.shardDigests()) }

// TestEncodeScratchDropsLargeBuffers: the process-wide encode free list
// recycles the small buffers digest recomputes use, and lets go of one
// that a multi-megabyte object grew instead of pinning it for good.
func TestEncodeScratchDropsLargeBuffers(t *testing.T) {
	for getEncodeBuf() != nil { // start from an empty free list
	}
	s := startSoloStore(t, 1)
	s.Update(workload.Add("small", "v"))
	s.Digest()
	if b := getEncodeBuf(); cap(b) == 0 {
		t.Error("a small encode buffer was not recycled")
	}
	s.Update(workload.Add("huge", strings.Repeat("x", 1<<20)))
	s.Digest()
	if b := getEncodeBuf(); b != nil {
		t.Errorf("a %d-byte encode buffer was handed back, want none above %d", cap(b), maxEncodeScratch)
	}
}

// TestDigestShardMismatchCounted pins the misconfiguration satellite: a
// digest advertisement of foreign width is not comparable, must repair
// nothing, and must say so in Stats.
func TestDigestShardMismatchCounted(t *testing.T) {
	s := startSoloStore(t, 4)
	adv := encodeFrame(t, protocol.NewDigestMsg(make([]uint64, 8), nil))
	for i := 0; i < 2; i++ {
		if err := s.deliver("peer", adv); err != nil {
			t.Fatalf("deliver: %v", err)
		}
	}
	st := s.Stats()
	if st.DigestShardMismatch != 2 {
		t.Errorf("DigestShardMismatch = %d, want 2", st.DigestShardMismatch)
	}
	if st.WantShards != 0 || st.TreeRounds != 0 {
		t.Errorf("mismatched advertisement triggered repair: %+v", st)
	}
}

// TestServeWantsHostileNoAllocs extends the hostile-Want defense to the
// allocation budget: a Want list of duplicate and out-of-range indices
// must be served (with nothing to ship) without a single allocation —
// the dedup scratch comes from the pooled deliverState.
func TestServeWantsHostileNoAllocs(t *testing.T) {
	s := startSoloStore(t, 4) // empty shards: nothing ships
	want := []uint32{0, 0, 0, 1, 1, 9, 99, 4294967295, 2, 2, 2}
	d := getDeliverState()
	defer d.release()
	allocs := testing.AllocsPerRun(100, func() {
		s.serveWants("peer", want, d.seenShards(len(s.shards)))
	})
	if allocs != 0 {
		t.Errorf("serveWants allocated %.1f times per hostile request, want 0", allocs)
	}
}

// TestNotifyGroupNoWatcherAllocs pins the no-watcher deliver path's
// notification step: gated on the lock-free watcher count, it must cost
// nothing — in particular never materialize an item's key as a string —
// when nobody watches. (The rest of the deliver path pays inherent
// per-item decode allocations either way; the notification step is what
// the gate saves.)
func TestNotifyGroupNoWatcherAllocs(t *testing.T) {
	s := startSoloStore(t, 4)
	keys := keysOnShard(s.mask, 1, 3)
	frame := encodeFrame(t, protocol.NewShardedMsg([]protocol.ShardItem{
		shardBatch(1, keys...),
	}))
	var v codec.FrameView
	if err := codec.UnpackFrame(frame, len(s.shards), &v); err != nil {
		t.Fatalf("unpack: %v", err)
	}
	g := v.Groups()[0]
	allocs := testing.AllocsPerRun(100, func() {
		// Exactly what deliverSharded runs per group when no one watches.
		if s.hasWatchers() {
			s.notifyGroup(g)
		}
	})
	if allocs != 0 {
		t.Errorf("no-watcher notification step allocated %.1f times per group, want 0", allocs)
	}
	// With a watcher registered the same frame does notify.
	w := s.Watch("", 16)
	defer w.Close()
	if err := s.deliver("peer", frame); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	select {
	case ev := <-w.Events():
		if ev.Key == "" {
			t.Error("empty watch event key")
		}
	case <-time.After(5 * time.Second):
		t.Error("watcher saw no event after delivery")
	}
}

// TestRepairTableSemantics covers the in-flight gate directly: claim,
// dedup, foreign answers, the want gate on delivery clears, timeout
// expiry, and the consecutive-failure carry-over that demotes a lossy
// link from drill-down to flat pull.
func TestRepairTableSemantics(t *testing.T) {
	r := repairTable{timeout: time.Second, entries: make([]repairEntry, 2)}
	t0 := time.Unix(1000, 0)
	if _, ok := r.tryStart(0, "a", t0); !ok {
		t.Fatal("fresh slot refused")
	}
	if _, ok := r.tryStart(0, "b", t0.Add(time.Millisecond)); ok {
		t.Error("in-flight slot re-claimed")
	}
	if _, ok := r.tryStart(1, "b", t0); !ok {
		t.Error("independent shard blocked")
	}
	if r.refresh(0, "b", t0.Add(time.Millisecond)) {
		t.Error("foreign peer refreshed the repair")
	}
	if !r.refresh(0, "a", t0.Add(time.Millisecond)) {
		t.Error("owner could not refresh")
	}
	// Delivery only clears once the repair has actually asked for data:
	// ordinary delta traffic from the owner must not abort a drill.
	r.clearFrom(0, "a")
	if _, ok := r.tryStart(0, "c", t0.Add(2*time.Millisecond)); ok {
		t.Error("delivery before the want was sent released the slot")
	}
	r.markWant(0, "a")
	r.clearFrom(0, "b")
	if _, ok := r.tryStart(0, "c", t0.Add(2*time.Millisecond)); ok {
		t.Error("clearFrom with foreign peer released the slot")
	}
	r.clearFrom(0, "a")
	if fails, ok := r.tryStart(0, "c", t0.Add(3*time.Millisecond)); !ok || fails != 0 {
		t.Errorf("slot after owner delivery: fails=%d ok=%v, want 0 true", fails, ok)
	}
	// Timeout: an expired repair no longer dedups, and each expiry
	// carries a failure over until maxDrillFails is reached.
	if fails, ok := r.tryStart(1, "d", t0.Add(2*time.Second)); !ok || fails != 1 {
		t.Errorf("first expiry: fails=%d ok=%v, want 1 true", fails, ok)
	}
	if fails, ok := r.tryStart(1, "d", t0.Add(4*time.Second)); !ok || fails != maxDrillFails {
		t.Errorf("second expiry: fails=%d ok=%v, want %d true", fails, ok, maxDrillFails)
	}
	if fails, ok := r.tryStart(1, "d", t0.Add(6*time.Second)); !ok || fails != maxDrillFails {
		t.Errorf("failure count past max: fails=%d ok=%v, want %d true", fails, ok, maxDrillFails)
	}
	// A match-clear resets the failure streak.
	r.clear(1)
	if fails, ok := r.tryStart(1, "e", t0.Add(8*time.Second)); !ok || fails != 0 {
		t.Errorf("slot after clear: fails=%d ok=%v, want 0 true", fails, ok)
	}
}

// TestTreeLeafHashesMatchAcrossReplicas pins the canonical-hash
// discipline the drill-down depends on: two stores holding the same
// keys in the same states compute identical leaf vectors, and a
// one-key difference shows up in exactly that key's leaf.
func TestTreeLeafHashesMatchAcrossReplicas(t *testing.T) {
	a := startSoloStore(t, 1)
	b := startSoloStore(t, 1)
	for i := 0; i < 300; i++ {
		op := workload.Add(fmt.Sprintf("k%04d", i), "v")
		a.Update(op)
		b.Update(op)
	}
	leavesOf := func(s *Store) []uint64 {
		sh := s.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.ensureLeavesLocked()
		return append([]uint64(nil), sh.leaf...)
	}
	la, lb := leavesOf(a), leavesOf(b)
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("leaf %d differs on identical stores", i)
		}
	}
	b.Update(workload.Add("extra", "v"))
	lb2 := leavesOf(b)
	want := treeLeafIdx("extra")
	for i := range lb2 {
		if (lb2[i] != lb[i]) != (uint32(i) == want) {
			t.Fatalf("one-key change altered leaf %d (expected only %d)", i, want)
		}
	}
}

// TestHandleTreeHostileInputs throws malformed drill-down steps built
// directly (bypassing the decoder's bounds checks) at the handlers:
// nothing may panic, and hostile duplicate Wants must not double-serve.
func TestHandleTreeHostileInputs(t *testing.T) {
	s := startSoloStore(t, 2)
	for i := 0; i < 20; i++ {
		s.Update(workload.Add(fmt.Sprintf("k%d", i), "v"))
	}
	d := getDeliverState()
	defer d.release()
	hostile := []*protocol.TreeMsg{
		protocol.NewTreeMsg(99, 1, []uint32{0}, nil, nil, nil), // shard skew
		protocol.NewTreeMsg(0, 0, []uint32{0}, nil, nil, nil),  // level 0
		protocol.NewTreeMsg(0, 9, []uint32{0}, nil, nil, nil),  // level past depth
		protocol.NewTreeMsg(0, 1, []uint32{999999}, nil, nil, nil),
		protocol.NewTreeMsg(0, 1, nil, []uint32{1, 2}, []uint64{7}, nil), // mismatched answer
		protocol.NewTreeMsg(0, 3, nil, nil, nil, []uint32{protocol.TreeLeaves + 5}),
	}
	for _, m := range hostile {
		s.handleTree("peer", m, d.b)
	}
	// A duplicated Want serves each range once.
	wantAll := make([]uint32, 0, 2*protocol.TreeFanout)
	for c := uint32(0); c < protocol.TreeFanout; c++ {
		wantAll = append(wantAll, c, c) // every level-1 node, twice
	}
	s.handleTree("peer", protocol.NewTreeMsg(0, 1, nil, nil, nil, wantAll), d.b)
	if got := s.Stats().RepairRanges; got != protocol.TreeFanout {
		t.Errorf("duplicated Want served %d ranges, want %d", got, protocol.TreeFanout)
	}
}

// TestContinueDrillHostileAnswer is the regression test for the
// out-of-range answer panic: continueDrill used to hand a hand-built
// answer's node indices to treeNodeHashes before validating them, and
// an index past the level's node count sliced past the leaf vector and
// panicked the store. The hostile answer must land on an armed repair
// (a fresh one is ignored before it ever reaches the hashing), be
// dropped harmlessly, and a mixed answer must still drill on its valid
// indices alone.
func TestContinueDrillHostileAnswer(t *testing.T) {
	s := startSoloStore(t, 1)
	for i := 0; i < 20; i++ {
		s.Update(workload.Add(fmt.Sprintf("k%d", i), "v"))
	}
	d := getDeliverState()
	defer d.release()
	// Arm an in-flight repair toward the hostile peer so the answer
	// passes the freshness gate — the state a real drill is in when an
	// answer arrives.
	if _, ok := s.repair.tryStart(0, "peer", time.Now()); !ok {
		t.Fatal("tryStart refused a fresh repair slot")
	}
	maxNode := uint32(protocol.TreeNodesAt(1))
	// Every index out of range for level 1: pre-fix this panicked.
	s.handleTree("peer", protocol.NewTreeMsg(0, 1, nil,
		[]uint32{maxNode, 1 << 30}, []uint64{0, 0}, nil), d.b)
	// The unusable answer must not have cleared the repair: a mixed
	// answer on the same slot still drills into its one valid index.
	rounds := s.Stats().TreeRounds
	s.handleTree("peer", protocol.NewTreeMsg(0, 1, nil,
		[]uint32{3, maxNode}, []uint64{0xdeadbeef, 0}, nil), d.b)
	if got := s.Stats().TreeRounds; got != rounds+1 {
		t.Errorf("mixed answer drilled %d new rounds, want 1 (valid index alone)", got-rounds)
	}
}
