package transport

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

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

// drillConfig is the drill scenarios' replica: one shard, so every key is
// in the diverged shard, of the plain delta engine on the prefix schema,
// with no digest schedule: each advertisement is one the scenario sends
// (advertise).
func drillConfig() StoreConfig {
	cfg := simConfig(EngineDelta, 0)
	cfg.Shards = 1
	return cfg
}

// drillMesh is the drill scenarios' rig: n fully meshed replicas of
// drillConfig, all holding the same shared sets — restored, as from a
// snapshot, which buffers nothing to send — and whatever stage adds to
// some of them, with every δ-buffer drained into a black hole, so that
// only anti-entropy can repair what differs. The links are mended when it
// returns.
func drillMesh(t *testing.T, seed int64, n, shared int, stage func(s *sim)) *sim {
	t.Helper()
	s := newSim(t, seed, n, drillConfig())
	for k := 0; k < shared; k++ {
		key := sharedKey(k)
		for _, node := range s.nodes {
			sh := node.shardOf(key)
			sh.ks.RestoreObject(key, crdt.NewGSet("v"))
		}
		s.ref[key] = crdt.NewGSet("v")
	}
	s.sever(true)
	stage(s)
	s.run(s.now + 2*simPeriod)
	s.sever(false)
	return s
}

// TestWantStormDedup is the Want-storm regression test: a replica
// receiving digest heartbeats faster than repair completes must start
// exactly one drill per diverged shard, dedup the rest, and still get
// each diverged range exactly once when the repair finally completes.
func TestWantStormDedup(t *testing.T) {
	const (
		sharedKeys = 600
		storm      = 15
	)
	forSeeds(func(seed int64) {
		// One key exists only on s-00, its δ-groups lost to the black
		// hole: only digest anti-entropy can see it.
		s := drillMesh(t, seed, 2, sharedKeys, func(s *sim) { s.Update(0, workload.Add("s/k-diverged", "v")) })
		s0, s1 := s.nodes[0], s.nodes[1]
		if got := s1.st.NumKeys(); got != sharedKeys {
			s.fatalf("black hole leaked: s-01 holds %d keys, want %d", got, sharedKeys)
		}
		// s-01's outbound stays dark through the storm, so its first hash
		// push is lost and the drill stays in flight; each heartbeat is
		// processed before the next, a distinct observation of it.
		s.links[1][0].severed = true
		for i := 0; i < storm; i++ {
			s.advertise(0)
			s.await("the heartbeat to be processed", simPeriod, func() bool {
				st := s1.stats()
				return st.TreeRounds+st.DedupedWants >= i+1
			})
		}
		if st := s1.stats(); st.TreeRounds != 1 || st.DedupedWants != storm-1 || st.WantShards != 0 {
			s.fatalf("storm started %d drills, want exactly 1; DedupedWants = %d, want %d; stopped %d at the root, want 0",
				st.TreeRounds, st.DedupedWants, storm-1, st.WantShards)
		}
		// Mended, and past repairTimeout: the in-flight (lost) drill has
		// expired, and the next advertisement's completes end to end.
		s.links[1][0].severed = false
		s.run(s.now + int64(repairTimeout))
		s.advertise(0)
		s.settle()
		final0 := s0.stats()
		if final0.RepairShards != 0 {
			s.fatalf("repair shipped %d full shards, want 0 (range repair only)", final0.RepairShards)
		}
		// One diverged key lives in exactly one range, and that range must
		// have been answered exactly once.
		if final0.RepairRanges != 1 || final0.RepairBytes <= 0 {
			s.fatalf("RepairRanges = %d, RepairBytes = %d; want exactly 1 answer for 1 diverged range, and bytes", final0.RepairRanges, final0.RepairBytes)
		}
		if got := s1.stats().RepairTimeouts; got != 1 {
			s.fatalf("RepairTimeouts = %d, want 1: the drill whose push was lost", got)
		}
	})
}

// TestTreeRepairConvergence drills multiple diverged keys end to end:
// every diverged key reaches the peer, nothing ships as a full shard,
// and the answer carries the diverged keys and nothing else.
func TestTreeRepairConvergence(t *testing.T) {
	const (
		sharedKeys   = 400
		divergedKeys = 5
	)
	forSeeds(func(seed int64) {
		var diverged []string
		for i := 0; i < divergedKeys; i++ {
			diverged = append(diverged, fmt.Sprintf("s/k-diverged-%d", i))
		}
		s := drillMesh(t, seed, 2, sharedKeys, func(s *sim) {
			for _, k := range diverged {
				s.Update(0, workload.Add(k, "v"))
			}
		})
		s0, s1 := s.nodes[0], s.nodes[1]
		s.advertise(0)
		s.settle()
		st0, st1 := s0.stats(), s1.stats()
		if st0.RepairShards != 0 || st1.RepairShards != 0 {
			s.fatalf("repair shipped %d+%d full shards, want 0", st0.RepairShards, st1.RepairShards)
		}
		if st0.RepairRanges < 1 || st0.RepairRanges > divergedKeys {
			s.fatalf("RepairRanges = %d, want 1..%d (at most one per diverged key)", st0.RepairRanges, divergedKeys)
		}
		// s-00 never stopped the drill, so all it shipped is its answer:
		// the diverged keys' states, and none of the keys the two agree on.
		if got, want := st0.RepairBytes, weigh(s0.st, diverged...); got != want {
			s.fatalf("s-00 shipped %d repair bytes, want the diverged keys' %d", got, want)
		}
		// One frame per level, alternating ends: s-01 pushed level 1, s-00
		// level 2, s-01 closed.
		if st1.TreeRounds != 2 || st0.TreeRounds != 1 {
			s.fatalf("TreeRounds = %d at s-01, %d at s-00, want 2 and 1", st1.TreeRounds, st0.TreeRounds)
		}
	})
}

// startDrillStore is a replica "n0" of GSets under the plain delta engine,
// ticked by hand, whose two neighbors, "peer" and "rival", never answer: a
// store drills with its neighbors only, and what it sends these goes
// nowhere, so a drill with either stays in flight.
func startDrillStore(t *testing.T, shards int) *Store {
	t.Helper()
	s, err := StartStore(StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Peers:      map[string]string{"peer": "127.0.0.1:1", "rival": "127.0.0.1:1"},
		Shards:     shards,
		Engine:     EngineDelta,
		ObjType:    func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery:  time.Hour,
	})
	if err != nil {
		t.Fatalf("StartStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStrangerStartsNoDrill: an advertisement from a store that is no
// neighbor starts no drill and holds no slot — what the drill would send
// it goes nowhere, and a held slot would turn the neighbors' drills away
// for repairTimeout — so the next neighbor's advertisement drills every
// shard that differs.
func TestStrangerStartsNoDrill(t *testing.T) {
	s := newTickStore(t) // n0, neighbors p1 and p2
	writeKeys(s, "k", 200)
	ad := encodeFrame(t, protocol.NewDigestMsg(make([]uint64, len(s.shards))))
	if err := s.deliver("stranger", ad); err != nil {
		t.Fatal(err)
	}
	held, differ := 0, 0
	s.locked(func() {
		for i, d := range s.shardDigests() {
			if s.repair.entries[i].active {
				held++
			}
			if d != 0 {
				differ++
			}
		}
	})
	if held != 0 {
		t.Errorf("a stranger's advertisement left %d of %d repair slots held", held, len(s.shards))
	}
	before := s.Stats()
	if err := s.deliver("p1", ad); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	started := after.TreeRounds + after.WantShards - before.TreeRounds - before.WantShards
	if deduped := after.DedupedWants - before.DedupedWants; started != differ || deduped != 0 {
		t.Errorf("p1's advertisement started %d drills and deduped %d, want %d and 0", started, deduped, differ)
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
		s := startDrillStore(t, 1)
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
// notification step: gated on the watcher count, it must cost
// nothing — in particular never materialize an item's key as a string —
// when nobody watches. (The rest of the deliver path pays inherent
// per-item decode allocations either way; the notification step is what
// the gate saves.)
func TestNotifyGroupNoWatcherAllocs(t *testing.T) {
	s := startSoloStore(t, 4)
	keys := keysOnShard(len(s.shards), 1, 3)
	frame := dataFrame(t, shardBatch(1, keys...))
	var v codec.FrameView
	if err := codec.UnpackFrame(frame, len(s.shards), &v); err != nil {
		t.Fatalf("unpack: %v", err)
	}
	g := v.Groups()[0]
	s.mu.Lock()
	allocs := testing.AllocsPerRun(100, func() {
		// Exactly what deliverSharded runs per group when no one watches.
		if len(s.watchers) > 0 {
			s.notifyGroup(g)
		}
	})
	s.mu.Unlock()
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
// message claims a free slot, extends its own peer's and takes over one
// held against a peer that orders after it, only the slot's peer's word
// ends the drill, and taking over an expired slot counts a timeout.
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
	if got := r.timeouts; got != 0 {
		t.Errorf("expired = %d before any timeout, want 0", got)
	}
	if !r.claim(1, "d", t0+2*sec, true) || !r.claim(1, "e", t0+4*sec, false) {
		t.Error("an expired slot still dedups")
	}
	if got := r.timeouts; got != 2 {
		t.Errorf("expired = %d after two takeovers, want 2", got)
	}
	r.clear(1)
	if !r.claim(1, "f", t0+10*sec, true) || r.timeouts != 2 {
		t.Errorf("a cleared slot was counted as a timeout (expired = %d)", r.timeouts)
	}
	// Expiry is exact: a slot claimed at t is held through t+timeout-1, and
	// at t+timeout a start takes it over and counts one timeout. The taker
	// holds it from then on: the silent peer's drill messages are turned
	// away, the taker's own extend it.
	r = repairTable{timeout: sec, entries: make([]repairEntry, 1)}
	if !r.claim(0, "b", t0, true) || r.claim(0, "a", t0+sec-1, true) {
		t.Error("a slot expired before its deadline")
	}
	if !r.claim(0, "a", t0+sec, true) || r.timeouts != 1 {
		t.Errorf("taking a slot over at its deadline: expired = %d, want 1", r.timeouts)
	}
	if r.claim(0, "b", t0+sec+1, false) {
		t.Error("the peer whose drill timed out was let back into the slot")
	}
	if !r.claim(0, "a", t0+2*sec-1, false) || r.claim(0, "c", t0+3*sec-2, true) || r.timeouts != 1 {
		t.Error("the taker's own message did not extend the slot")
	}
	// A slot held against q yields to a drill message from a peer that
	// orders before q, and no other: no ring of replicas each holding a
	// slot against the next can turn every drill away. The peer given up
	// on is turned away from then on, and nothing timed out.
	r = repairTable{timeout: sec, entries: make([]repairEntry, 1)}
	if !r.claim(0, "s-01", t0, true) || r.claim(0, "s-02", t0+ms, false) {
		t.Error("a drill message from a peer ordering after the slot's was let in")
	}
	if !r.claim(0, "s-00", t0+2*ms, false) || r.claim(0, "s-01", t0+3*ms, false) || r.timeouts != 0 {
		t.Errorf("the slot did not pass to the peer ordering first, or took its old peer back (expired = %d)", r.timeouts)
	}
	if !r.claim(0, "s-00", t0+sec+ms, false) || r.claim(0, "s-00", t0+sec+2*ms, true) {
		t.Error("the new peer's messages did not extend the slot it took over")
	}
}

// TestTreeLeafHashesMatchAcrossReplicas pins the canonical-hash
// discipline the drill depends on: two stores holding the same keys in
// the same states push identical hashes at every level, each the XOR
// recomputed from scratch, and a one-key difference shows up in exactly
// the one child, at each level, whose range holds the key.
func TestTreeLeafHashesMatchAcrossReplicas(t *testing.T) {
	a := startSoloStore(t, 1)
	b := startSoloStore(t, 1)
	for i := 0; i < 300; i++ {
		op := workload.Add(fmt.Sprintf("k%04d", i), "v")
		a.Update(op)
		b.Update(op)
	}
	var before [protocol.TreeDepth][]uint64
	for level := range before {
		ha, hb := a.childHashes(a.shards[0], level), b.childHashes(b.shards[0], level)
		if !slices.Equal(ha, hb) {
			t.Fatalf("level %d: child hashes differ on identical stores", level)
		}
		before[level] = hb
	}
	checkDigests(t, a, "a")
	b.Update(workload.Add("extra", "v"))
	checkDigests(t, b, "b")
	leaf := protocol.TreeLeafOf("extra")
	for level, hb := range before {
		want := leaf / protocol.TreeLeafSpan(level+1)
		for i, h := range b.childHashes(b.shards[0], level) {
			if (h != hb[i]) != (uint32(i) == want) {
				t.Fatalf("level %d: one-key change altered child %d (expected only %d)", level, i, want)
			}
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
	return dataFrame(t, append(items, protocol.ShardItem{Shard: shard, Msg: tm})...)
}

// TestHandleTreeHostileInputs throws malformed drill messages built
// directly (bypassing the decoder's bounds checks) at the handlers:
// nothing may panic, nothing malformed may take a slot or start a round,
// a busy slot turns away the drills of peers ordering after its own, hostile duplicate wants must
// not double-serve, and what a stopping store sends along fits one frame.
func TestHandleTreeHostileInputs(t *testing.T) {
	s := startDrillStore(t, 2)
	for _, k := range keysOnShard(len(s.shards), 0, 20) {
		s.Update(workload.Add(k, "v"))
	}
	b := newOutBatch()
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
		s.locked(func() { s.handleTree("peer", m, b, s.now()) })
	}
	if st := s.Stats(); st.TreeRounds != 0 || st.WantShards != 0 || st.DedupedWants != 0 {
		t.Errorf("malformed pushes moved the drill counters: %+v", st)
	}

	// A push naming a node twice is one round, not two.
	s.locked(func() { s.handleTree("peer", bogusPush(0, 0, 0, 0), b, s.now()) })
	if got := s.Stats().TreeRounds; got != 1 {
		t.Errorf("a push naming the root twice started %d rounds, want 1", got)
	}
	// The slot is now held against "peer": the drill of a peer that orders
	// after it on the shard — a push, or a close arriving in a data frame —
	// is turned away.
	s.locked(func() { s.handleTree("rival", bogusPush(0, 0, 0), b, s.now()) })
	if err := s.deliver("rival", closeFrame(t, 0, protocol.NewTreeMsg(0, 0, rootNode, nil))); err != nil {
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
	s.locked(func() {
		s.answerClose("peer", protocol.NewTreeMsg(0, 1, []uint32{protocol.TreeFanout, 1 << 30}, nil), codec.ItemGroup{}, b, s.now())
	})
	s.locked(func() { s.answerClose("peer", protocol.NewTreeMsg(0, 9, wantAll, nil), codec.ItemGroup{}, b, s.now()) })
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
	big.cfg.maxFrame = 256
	allLeaves := make([]uint32, protocol.TreeLeaves)
	for i := range allLeaves {
		allLeaves[i] = uint32(i)
		big.Update(workload.Add(fmt.Sprintf("k%06d", i), "v"))
	}
	big.locked(func() { big.continueDrill("peer", 0, protocol.TreeDepth, allLeaves, b, big.now()) })
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
	s := startDrillStore(t, 1)
	for i := 0; i < 600; i++ {
		s.Update(workload.Add(fmt.Sprintf("k%06d", i), "v"))
	}
	b := newOutBatch()
	// A drill toward the hostile peer is in flight — the state a real one
	// is in when an answer arrives.
	claimed := false
	s.locked(func() { claimed = s.repair.claim(0, "peer", s.now(), true) })
	if !claimed {
		t.Fatal("claim refused a fresh slot")
	}
	maxNode := uint32(protocol.TreeNodesAt(1))
	// Every index out of range for level 1: pre-fix this panicked.
	s.locked(func() { s.handleTree("peer", bogusPush(0, 1, maxNode, 1<<30), b, s.now()) })
	if got := s.Stats().TreeRounds; got != 0 {
		t.Errorf("an unusable push drilled %d rounds, want 0", got)
	}
	// A mixed push drills into its one valid node: one more message, and
	// it names only that node's children.
	s.locked(func() { s.handleTree("peer", bogusPush(0, 1, 3, maxNode), b, s.now()) })
	if got := s.Stats().TreeRounds; got != 1 {
		t.Errorf("mixed push drilled %d rounds, want 1 (valid index alone)", got)
	}
}

// sharedKey names the drill tests' k-th shared key. The suffix matters: a
// key's leaf is the top bits of its FNV-1a hash, which keys differing only
// in their last characters share, and the tests want an evenly filled tree.
func sharedKey(k int) string { return fmt.Sprintf("s/k%07d-shared", k) }

// slotHeld reports whether a drill holds the store's shard-0 slot.
func slotHeld(s *Store) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
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
		taken[protocol.TreeLeafOf(sharedKey(k))/span] = true
	}
	for i := 0; ; i++ {
		if k := fmt.Sprintf("s/%s%d-only", prefix, i); taken[protocol.TreeLeafOf(k)/span] == crowded {
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
// three replicas costs one drill — a frame per level, alternating ends,
// then the two closes — which ships that key's state one way, the stopping
// side's few neighbours of it the other, and no state the two already
// agreed on back. The repaired replica's forward of the key rides its next
// pass rather than asking for one.
func TestDrillOneMissingKey(t *testing.T) {
	const shared = 400
	missing := keyInNode("m", shared, true)
	forSeeds(func(seed int64) {
		s := drillMesh(t, seed, 3, shared, func(s *sim) {
			s.Update(0, workload.Add(missing, "v"))
			s.Update(1, workload.Add(missing, "v"))
		})
		s0, s2 := s.nodes[0].st, s.nodes[2].st
		base := s.total()
		// One advertisement, from a replica that has the key: s-01 agrees
		// with it, s-02 does not and drills.
		s.advertise(0)
		s.await("the drill to close", simPeriod, func() bool {
			return s2.Get(missing) != nil && !slotHeld(s2) && !slotHeld(s0)
		})
		after := s.total()
		if got := after.Frames - base.Frames; got != 2+4 {
			s.fatalf("the repair took %d frames, want 6: two advertisements, two hash pushes and two closes; s-02's forward of the key to s-01 waits for its next pass, since s-00, whose answer brought the key, reaches s-01", got)
		}
		if got := after.TreeRounds - base.TreeRounds; got != 3 {
			s.fatalf("TreeRounds = %d, want 3: level 1, level 2, close", got)
		}
		if after.RepairRanges != 1 || after.RepairShards != 0 || after.WantShards != 0 {
			s.fatalf("RepairRanges = %d, RepairShards = %d, WantShards = %d, want 1, 0, 0",
				after.RepairRanges, after.RepairShards, after.WantShards)
		}
		// The answering side shipped the missing key and not one stale
		// state; the stopping side the neighbours it sent along, less than
		// a level of hashes' worth.
		if got, want := s.Stats(0).RepairBytes, weigh(s0, missing); got != want {
			s.fatalf("s-00 answered with %d bytes, want the missing key's %d", got, want)
		}
		if got := s.Stats(2).RepairBytes; got == 0 || got > drillStopBytes {
			s.fatalf("s-02 sent %d bytes along with its close, want 1..%d", got, drillStopBytes)
		}
		// Everybody advertises: nobody finds anything left to drill for.
		for i := range s.nodes {
			s.advertise(i)
		}
		s.settle()
		if final := s.total(); final.TreeRounds != after.TreeRounds || final.RepairBytes != after.RepairBytes || final.RepairTimeouts != 0 {
			s.fatalf("converged replicas drilled again: TreeRounds %d -> %d, RepairBytes %d -> %d, RepairTimeouts %d",
				after.TreeRounds, final.TreeRounds, after.RepairBytes, final.RepairBytes, final.RepairTimeouts)
		}
	})
}

// TestDrillRepairsBothDirections: the close is the paper's state-driven
// synchronisation, so the one drill s-02 starts also carries what only
// s-02 has to s-00 — including when one side of a differing range is
// empty, where the answer, or what is sent along with the close, is
// nothing but the TreeMsg.
func TestDrillRepairsBothDirections(t *testing.T) {
	const shared = 400
	for _, tc := range []struct {
		name       string
		only0      []string // keys s-02 lacks (s-01 has them too, so only s-02 drills)
		only2      []string // keys only s-02, the drilling replica, holds
		answerless bool     // s-00 has nothing to answer with
	}{
		{name: "both", only0: []string{keyInNode("a", shared, true)}, only2: []string{keyInNode("b", shared, true)}},
		{name: "empty-at-starter", only0: []string{keyInNode("a", shared, false)}},
		{name: "empty-at-server", only2: []string{keyInNode("b", shared, false)}, answerless: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forSeeds(func(seed int64) {
				s := drillMesh(t, seed, 3, shared, func(s *sim) {
					for _, k := range tc.only0 {
						s.Update(0, workload.Add(k, "v"))
						s.Update(1, workload.Add(k, "v"))
					}
					for _, k := range tc.only2 {
						s.Update(2, workload.Add(k, "v"))
					}
				})
				s0, s2 := s.nodes[0].st, s.nodes[2].st
				s.advertise(0)
				s.await("the drill to close", simPeriod, func() bool {
					return s0.Digest() == s2.Digest() && !slotHeld(s2) && !slotHeld(s0)
				})
				for _, k := range append(tc.only0, tc.only2...) {
					if s0.Get(k) == nil || s2.Get(k) == nil {
						s.fatalf("%q did not reach both ends of the drill", k)
					}
				}
				st0, st2 := s.Stats(0), s.Stats(2)
				if st0.TreeRounds+st2.TreeRounds != 3 || st0.RepairTimeouts+st2.RepairTimeouts != 0 {
					s.fatalf("TreeRounds = %d, RepairTimeouts = %d, want one drill of 3 rounds and no timeout",
						st0.TreeRounds+st2.TreeRounds, st0.RepairTimeouts+st2.RepairTimeouts)
				}
				if got, want := st0.RepairBytes, weigh(s0, tc.only0...); got != want {
					s.fatalf("s-00 answered with %d bytes, want %d: what s-02 lacked and nothing else", got, want)
				}
				if tc.answerless != (st0.RepairRanges == 0) {
					s.fatalf("RepairRanges = %d at s-00 (answerless: %v)", st0.RepairRanges, tc.answerless)
				}
				s.settle()
			})
		})
	}
}

// TestDrillRacesWrite: a write that lands on a leaf while a drill is
// comparing it moves the hashes under the drill's feet. Wherever in the
// drill the writes land — the seed draws the moment — the replicas
// converge once every replica has advertised again until none differ.
func TestDrillRacesWrite(t *testing.T) {
	const shared = 400
	missing := keyInNode("m", shared, true)
	// Keys on the very leaf the drill is heading for.
	var racing []string
	for i := 0; len(racing) < 4; i++ {
		if k := fmt.Sprintf("s/r%d", i); protocol.TreeLeafOf(k) == protocol.TreeLeafOf(missing) {
			racing = append(racing, k)
		}
	}
	forSeeds(func(seed int64) {
		s := drillMesh(t, seed, 3, shared, func(s *sim) { s.Update(0, workload.Add(missing, "v")) })
		s.advertise(0)
		s.run(s.now + s.rng.Int63n(simPeriod/4))
		for i, k := range racing {
			s.Update(i%2*2, workload.Add(k, "v")) // s-00 and s-02, the drill's two ends
		}
		for rounds := 0; s.diverged() != ""; rounds++ {
			if rounds == 20 {
				s.fatalf("a write racing the drill kept the replicas from converging: %s", s.diverged())
			}
			s.run(s.now + simPeriod)
			for i := range s.nodes {
				s.advertise(i)
			}
		}
		s.settle()
	})
}
