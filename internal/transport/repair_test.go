package transport

import (
	"fmt"
	"net"
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
// receiving digest heartbeats faster than repair completes must start
// exactly one drill per diverged shard, dedup the rest, and still get
// each diverged range exactly once when the repair finally completes.
// Run under -race in CI, it also exercises the repair table's locking
// against concurrent heartbeats.
func TestWantStormDedup(t *testing.T) {
	const (
		sharedKeys = 600
		storm      = 15
	)
	// Both directions black-holed while state is staged; r-01's outbound
	// stays dark through the storm so its first hash push is lost and
	// the drill stays in flight.
	f0, f1 := NewFault(1), NewFault(2)
	f0.SetDropRate(1)
	f1.SetDropRate(1)
	cfg := repairPairConfig()
	cfg.RepairTimeout = time.Minute // longer than any storm; the clock is moved past it below
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
	// digest advertisement to s1, whose hash push cannot get out.
	f0.SetDropRate(0)
	for i := 0; i < storm; i++ {
		s0.SyncNow()
		// Wait for this heartbeat to be processed before the next, so
		// each is a distinct observation of the in-flight drill.
		eventually(t, 5*time.Second, "the heartbeat to be processed", func() bool {
			st := s1.Stats()
			return st.TreeRounds+st.DedupedWants >= i+1
		})
	}
	storStats := s1.Stats()
	if storStats.TreeRounds != 1 {
		t.Errorf("storm started %d drills, want exactly 1", storStats.TreeRounds)
	}
	if storStats.DedupedWants != storm-1 {
		t.Errorf("DedupedWants = %d, want %d", storStats.DedupedWants, storm-1)
	}
	if storStats.WantShards != 0 {
		t.Errorf("storm stopped %d drills at the root, want 0", storStats.WantShards)
	}

	// Heal r-01 and hand it s0's next advertisement past RepairTimeout on
	// its clock: the in-flight (lost) drill has expired, and the next one
	// completes end to end.
	f1.SetDropRate(0)
	vec := s0.shardDigests()
	adv := encodeFrame(t, protocol.NewDigestMsg(vec))
	s0.putDigestVec(vec)
	inc := s0.inc // as s0's hello named it
	if _, err := s1.core.deliver(s0.ID(), &inc, adv, s1.now()+int64(cfg.RepairTimeout)); err != nil {
		t.Fatal(err)
	}
	waitPairConverged(t, stores, sharedKeys+1, 30*time.Second)

	final0 := s0.Stats()
	if final0.RepairShards != 0 {
		t.Errorf("repair shipped %d full shards, want 0 (range repair only)", final0.RepairShards)
	}
	// One diverged key lives in exactly one range, and that range must
	// have been answered exactly once.
	if final0.RepairRanges != 1 {
		t.Errorf("RepairRanges = %d, want exactly 1 answer for 1 diverged range", final0.RepairRanges)
	}
	if final0.RepairBytes <= 0 {
		t.Errorf("RepairBytes = %d, want > 0", final0.RepairBytes)
	}
	if got := s1.Stats().RepairTimeouts; got != 1 {
		t.Errorf("RepairTimeouts = %d, want 1: the drill whose push was lost", got)
	}
}

// TestTreeRepairConvergence drills multiple diverged keys end to end:
// every diverged key reaches the peer, nothing ships as a full shard,
// and the answer carries the diverged keys and nothing else.
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
	divergedBytes := 0
	for i := 0; i < divergedKeys; i++ {
		k := fmt.Sprintf("k-diverged-%d", i)
		s0.Update(workload.Add(k, "v"))
		divergedBytes += len(k) + s0.Get(k).SizeBytes()
	}
	drainInto(t, s0)

	f0.SetDropRate(0)
	f1.SetDropRate(0)
	s0.SyncNow()
	waitPairConverged(t, stores, sharedKeys+divergedKeys, 30*time.Second)

	st0, st1 := s0.Stats(), s1.Stats()
	if st0.RepairShards != 0 || st1.RepairShards != 0 {
		t.Errorf("repair shipped %d+%d full shards, want 0", st0.RepairShards, st1.RepairShards)
	}
	if st0.RepairRanges < 1 || st0.RepairRanges > divergedKeys {
		t.Errorf("RepairRanges = %d, want 1..%d (at most one per diverged key)", st0.RepairRanges, divergedKeys)
	}
	// s0 never stopped the drill, so all it shipped is its answer: the
	// diverged keys' states, and none of the keys the two agree on.
	if st0.RepairBytes != divergedBytes {
		t.Errorf("s0 shipped %d repair bytes, want the diverged keys' %d", st0.RepairBytes, divergedBytes)
	}
	// One frame per level, alternating ends: s1 pushed level 1, s0 level
	// 2, s1 closed.
	if st1.TreeRounds != 2 || st0.TreeRounds != 1 {
		t.Errorf("TreeRounds = %d at s1, %d at s0, want 2 and 1", st1.TreeRounds, st0.TreeRounds)
	}
	for i := 0; i < divergedKeys; i++ {
		k := fmt.Sprintf("k-diverged-%d", i)
		if st := s1.Get(k); st == nil || st.IsBottom() {
			t.Errorf("diverged key %q missing on s1 after repair", k)
		}
	}
}

// TestSmallShardStopsAtRoot: a diverged shard whose keys and states weigh
// less than one level of hashes is never hashed — the drill stops where it
// starts, at the root, which is the whole-shard pull — and a larger one
// is. The repair table dedups the heartbeats that follow either way.
func TestSmallShardStopsAtRoot(t *testing.T) {
	for _, tc := range []struct{ keys, wants, rounds int }{
		{keys: 5, wants: 1, rounds: 0},
		{keys: 600, wants: 0, rounds: 1},
	} {
		s := startSoloStore(t, 1)
		for i := 0; i < tc.keys; i++ {
			s.Update(workload.Add(fmt.Sprintf("k%06d", i), "v"))
		}
		// A differing advertisement from an unknown peer: what the drill
		// sends is dropped by the peer net, so it stays in flight.
		adv := encodeFrame(t, protocol.NewDigestMsg([]uint64{12345}))
		for i := 0; i < 3; i++ {
			if err := s.deliver("peer", adv); err != nil {
				t.Fatalf("deliver: %v", err)
			}
		}
		st := s.Stats()
		if st.WantShards != tc.wants || st.TreeRounds != tc.rounds {
			t.Errorf("%d keys: WantShards = %d, TreeRounds = %d, want %d and %d",
				tc.keys, st.WantShards, st.TreeRounds, tc.wants, tc.rounds)
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

// TestDigestShardMismatchCounted pins the misconfiguration satellite: a
// digest advertisement of foreign width is not comparable, must repair
// nothing, and must say so in Stats.
func TestDigestShardMismatchCounted(t *testing.T) {
	s := startSoloStore(t, 4)
	adv := encodeFrame(t, protocol.NewDigestMsg(make([]uint64, 8)))
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

// TestRepairTableSemantics covers the slot table directly, on explicit
// times: a start claims a free slot and is refused by a held one, a drill
// message claims or extends only its own peer's, only that peer's word ends
// the drill, and taking over an expired slot counts a timeout.
func TestRepairTableSemantics(t *testing.T) {
	const ms, sec = int64(time.Millisecond), int64(time.Second)
	r := repairTable{timeout: sec, entries: make([]repairEntry, 2)}
	t0 := 1000 * sec
	if !r.claim(0, "a", t0, true) {
		t.Fatal("fresh slot refused")
	}
	if r.claim(0, "b", t0+ms, true) || r.claim(0, "a", t0+ms, true) {
		t.Error("a start re-claimed a slot in flight")
	}
	if !r.claim(1, "b", t0, false) {
		t.Error("a drill message could not claim a free slot for serving")
	}
	if r.claim(0, "b", t0+ms, false) {
		t.Error("a foreign peer's drill message was let into the slot")
	}
	// A message from the slot's own peer is progress: it extends the
	// deadline, so the slot still dedups past the original one.
	if !r.claim(0, "a", t0+900*ms, false) {
		t.Error("the slot's own peer was refused")
	}
	if r.claim(0, "c", t0+1500*ms, true) {
		t.Error("a refreshed slot expired on its original deadline")
	}
	// The drill's end releases the slot, on the word of its own peer only.
	r.clearFrom(0, "b")
	if r.claim(0, "c", t0+1500*ms, true) {
		t.Error("clearFrom with a foreign peer released the slot")
	}
	r.clearFrom(0, "a")
	if !r.claim(0, "c", t0+1500*ms, true) {
		t.Error("the drill's end did not release the slot")
	}
	r.clearFrom(1, "b")
	if !r.claim(1, "c", t0+ms, true) {
		t.Error("the served drill's end did not release the slot")
	}
	// Nothing so far expired; taking over a slot past its deadline does,
	// once per drill given up on, and a digest re-match does not.
	if got := r.expired(); got != 0 {
		t.Errorf("expired = %d before any timeout, want 0", got)
	}
	if !r.claim(1, "d", t0+2*sec, true) || !r.claim(1, "e", t0+4*sec, false) {
		t.Error("an expired slot still dedups")
	}
	if got := r.expired(); got != 2 {
		t.Errorf("expired = %d after two takeovers, want 2", got)
	}
	if !r.clear(1) || r.clear(1) {
		t.Error("clear must report exactly the held slot")
	}
	if !r.claim(1, "f", t0+10*sec, true) || r.expired() != 2 {
		t.Errorf("a cleared slot was counted as a timeout (expired = %d)", r.expired())
	}
	// Expiry is exact: a slot claimed at t is held through t+timeout-1, and
	// at t+timeout a start takes it over and counts one timeout. The taker
	// holds it from then on: the silent peer's drill messages are turned
	// away, the taker's own extend it.
	r = repairTable{timeout: sec, entries: make([]repairEntry, 1)}
	if !r.claim(0, "a", t0, true) || r.claim(0, "b", t0+sec-1, true) {
		t.Error("a slot expired before its deadline")
	}
	if !r.claim(0, "b", t0+sec, true) || r.expired() != 1 {
		t.Errorf("taking a slot over at its deadline: expired = %d, want 1", r.expired())
	}
	if r.claim(0, "a", t0+sec+1, false) {
		t.Error("the peer whose drill timed out was let back into the slot")
	}
	if !r.claim(0, "b", t0+2*sec-1, false) || r.claim(0, "c", t0+3*sec-2, true) || r.expired() != 1 {
		t.Error("the taker's own message did not extend the slot")
	}
}

// TestTreeLeafHashesMatchAcrossReplicas pins the canonical-hash
// discipline the drill depends on: two stores holding the same keys in
// the same states compute identical leaf vectors, and a one-key
// difference shows up in exactly that key's leaf. A mutation hands the
// vector back.
func TestTreeLeafHashesMatchAcrossReplicas(t *testing.T) {
	a := startSoloStore(t, 1)
	b := startSoloStore(t, 1)
	for i := 0; i < 300; i++ {
		op := workload.Add(fmt.Sprintf("k%04d", i), "v")
		a.Update(op)
		b.Update(op)
	}
	leavesOf := func(s *Store) leafVec {
		sh := s.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.ensureLeavesLocked()
		return *sh.leaf
	}
	la, lb := leavesOf(a), leavesOf(b)
	if la != lb {
		t.Fatal("leaf vectors differ on identical stores")
	}
	b.Update(workload.Add("extra", "v"))
	if b.shards[0].leaf != nil {
		t.Error("a mutated shard kept its leaf vector")
	}
	lb2 := leavesOf(b)
	want := treeLeafIdx("extra")
	for i := range lb2 {
		if (lb2[i] != lb[i]) != (uint32(i) == want) {
			t.Fatalf("one-key change altered leaf %d (expected only %d)", i, want)
		}
	}
}

// bogusPush builds a hash push whose every hash is wrong, so each valid
// node it names differs in all its children.
func bogusPush(shard uint32, level uint8, nodes ...uint32) *protocol.TreeMsg {
	hashes := make([]uint64, protocol.TreeFanout*len(nodes))
	for i := range hashes {
		hashes[i] = 0xdeadbeef
	}
	return protocol.NewTreeMsg(shard, level, nodes, hashes)
}

// closeFrame encodes the sharded frame a drill's close travels in: the
// sender's states, then the TreeMsg naming the ranges it wants.
func closeFrame(t *testing.T, shard uint32, tm *protocol.TreeMsg, keys ...string) []byte {
	var items []protocol.ShardItem
	if len(keys) > 0 {
		items = append(items, shardBatch(shard, keys...))
	}
	return encodeFrame(t, protocol.NewShardedMsg(append(items, protocol.ShardItem{Shard: shard, Msg: tm})))
}

// TestHandleTreeHostileInputs throws malformed drill messages built
// directly (bypassing the decoder's bounds checks) at the handlers:
// nothing may panic, nothing malformed may take a slot or start a round,
// a busy slot turns other peers' drills away, hostile duplicate wants must
// not double-serve, and what a stopping store sends along fits one frame.
func TestHandleTreeHostileInputs(t *testing.T) {
	s := startSoloStore(t, 2)
	for _, k := range keysOnShard(s.mask, 0, 20) {
		s.Update(workload.Add(k, "v"))
	}
	d := getDeliverState()
	defer d.release()
	hostile := []*protocol.TreeMsg{
		bogusPush(99, 1, 0),                                    // shard skew
		bogusPush(0, protocol.TreeDepth, 0),                    // a push below the leaves
		bogusPush(0, 9, 0),                                     // level past depth
		bogusPush(0, 1, 999999),                                // no such node
		protocol.NewTreeMsg(0, 1, []uint32{1, 2}, []uint64{7}), // too few hashes
		protocol.NewTreeMsg(0, 1, nil, nil),                    // nothing at all
		protocol.NewTreeMsg(0, 1, []uint32{1}, nil),            // a close outside a data frame
	}
	for _, m := range hostile {
		s.handleTree("peer", m, d.b, s.now())
	}
	if st := s.Stats(); st.TreeRounds != 0 || st.WantShards != 0 || st.DedupedWants != 0 {
		t.Errorf("malformed pushes moved the drill counters: %+v", st)
	}

	// A push naming a node twice is one round, not two.
	s.handleTree("peer", bogusPush(0, 0, 0, 0), d.b, s.now())
	if got := s.Stats().TreeRounds; got != 1 {
		t.Errorf("a push naming the root twice started %d rounds, want 1", got)
	}
	// The slot is now held against "peer": another peer's drill on the
	// shard — a push, or a close arriving in a data frame — is turned away.
	s.handleTree("other", bogusPush(0, 0, 0), d.b, s.now())
	if err := s.deliver("other", closeFrame(t, 0, protocol.NewTreeMsg(0, 0, rootNode, nil))); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	if st := s.Stats(); st.DedupedWants != 2 || st.TreeRounds != 1 || st.RepairShards != 0 {
		t.Errorf("a drill for a slot held against another peer: DedupedWants = %d, TreeRounds = %d, RepairShards = %d, want 2, 1, 0",
			st.DedupedWants, st.TreeRounds, st.RepairShards)
	}

	// A duplicated want answers each range once; one that names nodes the
	// level does not have, a level the tree does not have, or a shard it
	// did not travel under, nothing.
	var wantAll []uint32
	for c := uint32(0); c < protocol.TreeFanout; c++ {
		wantAll = append(wantAll, c, c) // every level-1 node, twice
	}
	for _, tm := range []*protocol.TreeMsg{
		protocol.NewTreeMsg(0, 1, wantAll, nil),
		protocol.NewTreeMsg(1, 1, wantAll, nil),
	} {
		if err := s.deliver("peer", closeFrame(t, 0, tm)); err != nil {
			t.Fatalf("deliver: %v", err)
		}
	}
	s.answerClose("peer", protocol.NewTreeMsg(0, 1, []uint32{protocol.TreeFanout, 1 << 30}, nil), codec.ItemGroup{}, d.b, s.now())
	s.answerClose("peer", protocol.NewTreeMsg(0, 9, wantAll, nil), codec.ItemGroup{}, d.b, s.now())
	if got := s.Stats().RepairRanges; got != protocol.TreeFanout {
		t.Errorf("duplicated want answered %d ranges, want %d", got, protocol.TreeFanout)
	}
	if slotHeld(s) {
		t.Error("the answered close left the slot held")
	}

	// A store that has to stop on more than a frame holds — only the leaf
	// level can force that — sends one frame's worth and leaves the rest
	// to the answer.
	big := startSoloStore(t, 1)
	big.cfg.MaxFrameBytes = 256
	allLeaves := make([]uint32, protocol.TreeLeaves)
	for i := range allLeaves {
		allLeaves[i] = uint32(i)
		big.Update(workload.Add(fmt.Sprintf("k%06d", i), "v"))
	}
	big.continueDrill("peer", 0, protocol.TreeDepth, allLeaves, d.b)
	if got, limit := big.Stats().RepairBytes, big.maxMsgBytes()/2; got == 0 || got > limit {
		t.Errorf("a forced stop sent %d bytes along, want 1..%d (half a frame)", got, limit)
	}
}

// TestContinueDrillHostileAnswer is the regression test for the
// out-of-range answer panic: a hand-built push's node indices used to
// reach the leaf vector before they were validated, and one past the
// level's node count sliced past it and panicked the store. The hostile
// push must land on a drill in flight, be dropped harmlessly, and a mixed
// one must still drill on its valid index alone.
func TestContinueDrillHostileAnswer(t *testing.T) {
	s := startSoloStore(t, 1)
	for i := 0; i < 600; i++ {
		s.Update(workload.Add(fmt.Sprintf("k%06d", i), "v"))
	}
	d := getDeliverState()
	defer d.release()
	// A drill toward the hostile peer is in flight — the state a real one
	// is in when an answer arrives.
	if !s.repair.claim(0, "peer", s.now(), true) {
		t.Fatal("claim refused a fresh slot")
	}
	maxNode := uint32(protocol.TreeNodesAt(1))
	// Every index out of range for level 1: pre-fix this panicked.
	s.handleTree("peer", bogusPush(0, 1, maxNode, 1<<30), d.b, s.now())
	if got := s.Stats().TreeRounds; got != 0 {
		t.Errorf("an unusable push drilled %d rounds, want 0", got)
	}
	// A mixed push drills into its one valid node: one more message, and
	// it names only that node's children.
	s.handleTree("peer", bogusPush(0, 1, 3, maxNode), d.b, s.now())
	if got := s.Stats().TreeRounds; got != 1 {
		t.Errorf("mixed push drilled %d rounds, want 1 (valid index alone)", got)
	}
}

// drillMesh is the drill tests' rig: three fully meshed single-shard
// stores of GSets under the plain delta engine, ticked by hand with a
// digest advertisement on every tick, all holding the same shared keys —
// and whatever stage adds to some of them — with every δ-buffer drained
// into a black hole, so that only anti-entropy can repair what differs.
func drillMesh(t *testing.T, shared int, stage func(stores []*Store)) []*Store {
	t.Helper()
	fault := NewFault(7)
	fault.SetDropRate(1)
	cfg := repairPairConfig()
	cfg.ID = "d"
	stores, err := LoopbackClusterWith(3, cfg, func(_ int, _ string, cfg *StoreConfig) {
		cfg.Dial = fault.Dialer(nil)
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	for _, st := range stores {
		st := st
		t.Cleanup(func() { st.Close() })
	}
	for k := 0; k < shared; k++ {
		op := workload.Add(sharedKey(k), "v")
		for _, st := range stores {
			st.Update(op)
		}
	}
	stage(stores)
	for _, st := range stores {
		drainInto(t, st)
	}
	fault.SetDropRate(0)
	return stores
}

// sharedKey names the drill tests' k-th shared key. The suffix matters: a
// key's leaf is the top bits of its FNV-1a hash, which keys differing only
// in their last characters share, and the tests want an evenly filled tree.
func sharedKey(k int) string { return fmt.Sprintf("k%07d-shared", k) }

// slotHeld reports whether a drill holds the store's shard-0 slot.
func slotHeld(s *Store) bool {
	s.repair.mu.Lock()
	defer s.repair.mu.Unlock()
	return s.repair.entries[0].active
}

// clusterStats sums the stores' counters.
func clusterStats(stores []*Store) StoreStats {
	var total StoreStats
	for _, st := range stores {
		total.Add(st.Stats())
	}
	return total
}

// keyInNode returns a key outside the shared ones whose level-2 node
// holds, among the first shared keys, at least one (crowded) or none.
func keyInNode(prefix string, shared int, crowded bool) string {
	span := protocol.TreeLeafSpan(2)
	taken := make(map[uint32]bool)
	for k := 0; k < shared; k++ {
		taken[treeLeafIdx(sharedKey(k))/span] = true
	}
	for i := 0; ; i++ {
		if k := fmt.Sprintf("%s%d-only", prefix, i); taken[treeLeafIdx(k)/span] == crowded {
			return k
		}
	}
}

// weigh is what a store's copies of keys count for in RepairBytes.
func weigh(s *Store, keys ...string) int {
	n := 0
	for _, k := range keys {
		n += len(k) + s.Get(k).SizeBytes()
	}
	return n
}

// TestDrillOneMissingKey is the drill's budget: one key missing at one of
// three replicas costs one drill cluster-wide — a frame per level,
// alternating ends, then the two closes — which ships that key's state
// one way, the stopping side's few neighbours of it the other, and no
// state the two already agreed on back.
func TestDrillOneMissingKey(t *testing.T) {
	const shared = 400
	missing := keyInNode("m", shared, true)
	stores := drillMesh(t, shared, func(stores []*Store) {
		stores[0].Update(workload.Add(missing, "v"))
		stores[1].Update(workload.Add(missing, "v"))
	})
	base := clusterStats(stores)
	// One advertisement, from a store that has the key: d-01 agrees with
	// it, d-02 does not and drills.
	stores[0].SyncNow()
	eventually(t, 10*time.Second, "the drill to close", func() bool {
		return stores[2].Get(missing) != nil && !slotHeld(stores[2]) && !slotHeld(stores[0])
	})
	after := clusterStats(stores)
	if got := after.Frames - base.Frames; got != 2+4 {
		t.Errorf("the repair took %d frames, want 6: two advertisements, two hash pushes, two closes", got)
	}
	if got := after.TreeRounds - base.TreeRounds; got != 3 {
		t.Errorf("TreeRounds = %d, want 3: level 1, level 2, close", got)
	}
	if after.RepairRanges != 1 || after.RepairShards != 0 || after.WantShards != 0 {
		t.Errorf("RepairRanges = %d, RepairShards = %d, WantShards = %d, want 1, 0, 0",
			after.RepairRanges, after.RepairShards, after.WantShards)
	}
	// The answering side shipped the missing key and not one stale state;
	// the stopping side the neighbours it sent along, less than a level of
	// hashes' worth.
	if got, want := stores[0].Stats().RepairBytes, weigh(stores[0], missing); got != want {
		t.Errorf("d-00 answered with %d bytes, want the missing key's %d", got, want)
	}
	if got := stores[2].Stats().RepairBytes; got == 0 || got > drillStopBytes {
		t.Errorf("d-02 sent %d bytes along with its close, want 1..%d", got, drillStopBytes)
	}
	// Everybody advertises: nobody finds anything left to drill for.
	for _, st := range stores {
		st.SyncNow()
	}
	if err := WaitConverged(stores, shared+1, 10*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let any (unexpected) drill start
	if final := clusterStats(stores); final.TreeRounds != after.TreeRounds || final.RepairBytes != after.RepairBytes || final.RepairTimeouts != 0 {
		t.Errorf("a converged cluster drilled again: TreeRounds %d -> %d, RepairBytes %d -> %d, RepairTimeouts %d",
			after.TreeRounds, final.TreeRounds, after.RepairBytes, final.RepairBytes, final.RepairTimeouts)
	}
}

// TestDrillRepairsBothDirections: the close is the paper's state-driven
// synchronisation, so the one drill d-02 starts also carries what only
// d-02 has to d-00 — including when one side of a differing range is
// empty, where the answer, or what is sent along with the close, is
// nothing but the TreeMsg.
func TestDrillRepairsBothDirections(t *testing.T) {
	const shared = 400
	for _, tc := range []struct {
		name       string
		only0      []string // keys d-02 lacks (d-01 has them too, so only d-02 drills)
		only2      []string // keys only d-02, the drilling store, holds
		answerless bool     // d-00 has nothing to answer with
	}{
		{name: "both", only0: []string{keyInNode("a", shared, true)}, only2: []string{keyInNode("b", shared, true)}},
		{name: "empty-at-starter", only0: []string{keyInNode("a", shared, false)}},
		{name: "empty-at-server", only2: []string{keyInNode("b", shared, false)}, answerless: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stores := drillMesh(t, shared, func(stores []*Store) {
				for _, k := range tc.only0 {
					stores[0].Update(workload.Add(k, "v"))
					stores[1].Update(workload.Add(k, "v"))
				}
				for _, k := range tc.only2 {
					stores[2].Update(workload.Add(k, "v"))
				}
			})
			s0, s2 := stores[0], stores[2]
			s0.SyncNow()
			eventually(t, 10*time.Second, "the drill to close", func() bool {
				return s0.Digest() == s2.Digest() && !slotHeld(s2) && !slotHeld(s0)
			})
			for _, k := range append(tc.only0, tc.only2...) {
				if s0.Get(k) == nil || s2.Get(k) == nil {
					t.Errorf("%q did not reach both ends of the drill", k)
				}
			}
			st0, st2 := s0.Stats(), s2.Stats()
			if st0.TreeRounds+st2.TreeRounds != 3 || st0.RepairTimeouts+st2.RepairTimeouts != 0 {
				t.Errorf("TreeRounds = %d, RepairTimeouts = %d, want one drill of 3 rounds and no timeout",
					st0.TreeRounds+st2.TreeRounds, st0.RepairTimeouts+st2.RepairTimeouts)
			}
			if got, want := st0.RepairBytes, weigh(s0, tc.only0...); got != want {
				t.Errorf("d-00 answered with %d bytes, want %d: what d-02 lacked and nothing else", got, want)
			}
			if tc.answerless != (st0.RepairRanges == 0) {
				t.Errorf("RepairRanges = %d at d-00 (answerless: %v)", st0.RepairRanges, tc.answerless)
			}
		})
	}
}

// TestDrillRacesWrite: a write that lands on a leaf while a drill is
// comparing it moves the hashes under the drill's feet. Whatever the
// interleaving, the cluster converges once the dust has settled.
func TestDrillRacesWrite(t *testing.T) {
	const shared = 400
	missing := keyInNode("m", shared, true)
	stores := drillMesh(t, shared, func(stores []*Store) {
		stores[0].Update(workload.Add(missing, "v"))
	})
	// Keys on the very leaf the drill is heading for.
	var racing []string
	for i := 0; len(racing) < 4; i++ {
		if k := fmt.Sprintf("r%d", i); treeLeafIdx(k) == treeLeafIdx(missing) {
			racing = append(racing, k)
		}
	}
	stores[0].SyncNow()
	for i, k := range racing {
		stores[i%2*2].Update(workload.Add(k, "v")) // d-00 and d-02, the drill's two ends
	}
	deadline := time.Now().Add(20 * time.Second)
	for WaitConverged(stores, shared+1+len(racing), 50*time.Millisecond, nil) != nil {
		if time.Now().After(deadline) {
			t.Fatal("a write racing the drill kept the cluster from converging")
		}
		for _, st := range stores {
			st.SyncNow()
		}
	}
}
