package transport_test

import (
	"fmt"
	"testing"
	"time"

	"crdtsync/internal/protocol"
	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// TestStoreDigestIdleTrafficBeatsFullShip is the steady-state wire-cost
// guarantee of digest anti-entropy: once two stores have converged, an
// idle tick ships only the per-shard digest vector, which must be at
// least 10x smaller than what shipping the shards themselves costs (the
// behavior a digest-less always-ship anti-entropy scheme would pay every
// tick). Both sides of the comparison are real frames measured by
// Store.Stats(): the full-ship cost is captured from the digest repair of
// a store whose every delta was lost, which ships every shard in full.
func TestStoreDigestIdleTrafficBeatsFullShip(t *testing.T) {
	const keys = 400
	fault := transport.NewFault(3)
	fault.SetDropRate(1) // black hole while loading
	faultFor := func(i int, id string) *transport.Fault {
		if i == 0 {
			return fault
		}
		return nil
	}
	stores := startFaultyCluster(t, 2, transport.StoreConfig{
		Shards:  8,
		Factory: protocol.NewDeltaBPRR(),
		ObjType: func(string) workload.Datatype { return workload.GCounterType{} },
		// Ticks are driven manually so the measurement counts them.
		SyncEvery:   time.Hour,
		DigestEvery: 1,
	}, faultFor)
	s0, s1 := stores[0], stores[1]

	// Load the whole keyspace on s0 and sync twice into the black hole:
	// the plain delta engine clears its δ-buffer after the first send, so
	// the data now exists only in s0's shards — s1 knows nothing and no
	// retransmission will ever happen at the protocol level.
	for k := 0; k < keys; k++ {
		s0.Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%04d", k), N: 1})
	}
	s0.SyncNow()
	s0.SyncNow()
	// Writes happen on per-peer writer goroutines: wait for the queues to
	// drain (into the black hole) before healing, or the data frames
	// would leak out after the drop rate resets.
	waitQueuesDrained(t, s0, 10*time.Second)
	if got := s1.NumKeys(); got != 0 {
		t.Fatalf("black hole leaked: s1 holds %d keys", got)
	}

	// Heal and run exactly one tick: the digest advertisement reaches s1,
	// s1 requests every differing shard, s0 serves them in full. All the
	// repair traffic below flows from this single tick — it is what an
	// always-ship scheme would put on the wire every tick.
	fault.SetDropRate(0)
	base := s0.Stats()
	s0.SyncNow()
	if err := transport.WaitConverged(stores, keys, 30*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	repair := s0.Stats()
	fullShipBytes := repair.WireBytes - base.WireBytes
	if repair.RepairShards != s0.NumShards() {
		t.Fatalf("repair served %d shards, want all %d", repair.RepairShards, s0.NumShards())
	}

	// Now both stores are converged and idle: N further ticks must ship
	// nothing but the constant-size digest heartbeat, and s1 must never
	// observe divergence again.
	const idleTicks = 20
	idleBase := s0.Stats()
	s1WantsBase := s1.Stats().WantShards
	for i := 0; i < idleTicks; i++ {
		s0.SyncNow()
	}
	time.Sleep(200 * time.Millisecond) // let any (unexpected) replies land
	idle := s0.Stats()
	if got := s1.Stats().WantShards; got != s1WantsBase {
		t.Errorf("converged idle ticks still triggered %d shard requests", got-s1WantsBase)
	}
	idleFrames := idle.Frames - idleBase.Frames
	if idleFrames != idleTicks {
		t.Errorf("idle ticks sent %d frames, want exactly %d digest heartbeats", idleFrames, idleTicks)
	}
	perTick := (idle.WireBytes - idleBase.WireBytes) / idleTicks
	t.Logf("idle digest tick = %d B, full ship = %d B (%.0fx)",
		perTick, fullShipBytes, float64(fullShipBytes)/float64(perTick))
	if perTick*10 > fullShipBytes {
		t.Errorf("idle tick = %d B is not 10x below full ship = %d B", perTick, fullShipBytes)
	}
}

// TestStoreSkipsCleanShards pins the O(dirty shards) tick: a converged,
// idle store's SyncNow must produce no data frames at all (digests
// disabled here), because every clean shard is skipped outright.
func TestStoreSkipsCleanShards(t *testing.T) {
	stores := startStoreCluster(t, 2, 8, protocol.NewDeltaBPRR(), time.Hour)
	const keys = 64
	for k := 0; k < keys; k++ {
		stores[0].Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%03d", k), N: 1})
	}
	stores[0].SyncNow()
	waitStoresConverged(t, stores, keys, 5*time.Second)
	// Drain the one residual visit that clears the dirty bits.
	stores[0].SyncNow()
	base := stores[0].Stats()
	for i := 0; i < 50; i++ {
		stores[0].SyncNow()
	}
	if got := stores[0].Stats(); got.Frames != base.Frames || got.WireBytes != base.WireBytes {
		t.Errorf("idle ticks sent frames: %+v vs %+v", got, base)
	}
	// A single fresh update re-dirties exactly one shard and flows out.
	stores[0].Update(workload.Op{Kind: workload.KindInc, Key: "key-000", N: 1})
	stores[0].SyncNow()
	if got := stores[0].Stats().Frames; got != base.Frames+1 {
		t.Errorf("dirty shard after idle did not sync: frames = %d, want %d", got, base.Frames+1)
	}
}

// TestStoreAckedIdleTicksAreHeartbeatOnly checks the steady state of the
// production engine configuration (acked deltas + digests): once the
// cluster converges and the δ-buffers drain, ticker-driven ticks must
// ship digest heartbeats and nothing else.
func TestStoreAckedIdleTicksAreHeartbeatOnly(t *testing.T) {
	const keys = 90
	stores, err := transport.LoopbackCluster(3, transport.StoreConfig{
		ID:          "s",
		Shards:      8,
		Factory:     protocol.NewDeltaAcked(true, true),
		ObjType:     func(string) workload.Datatype { return workload.GCounterType{} },
		SyncEvery:   15 * time.Millisecond,
		DigestEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		st := st
		t.Cleanup(func() { st.Close() })
	}
	for i, st := range stores {
		for k := i; k < keys; k += 3 {
			st.Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%03d", k), N: 1})
		}
	}
	if err := transport.WaitConverged(stores, keys, 30*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		drained := 0
		for _, st := range stores {
			drained += st.Memory().BufferBytes
		}
		if drained == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("δ-buffers did not drain")
		}
		time.Sleep(15 * time.Millisecond)
	}
	// Let in-flight duplicates settle: a retransmission wave already
	// queued in a socket buffer when the δ-buffers drained still earns
	// one batched ack reply once the receiver works through it —
	// residual delta traffic, not a leak. Wait for a quiet window.
	dataFrames := func(s transport.StoreStats) int { return s.Frames - s.DigestFrames }
	for settle := time.Now().Add(5 * time.Second); time.Now().Before(settle); {
		prev := 0
		for _, st := range stores {
			prev += dataFrames(st.Stats())
		}
		time.Sleep(50 * time.Millisecond)
		cur := 0
		for _, st := range stores {
			cur += dataFrames(st.Stats())
		}
		if cur == prev {
			break
		}
	}
	before := make([]transport.StoreStats, len(stores))
	for i, st := range stores {
		before[i] = st.Stats()
	}
	time.Sleep(300 * time.Millisecond)
	for i, st := range stores {
		a, b := st.Stats(), before[i]
		dataFrames := (a.Frames - a.DigestFrames) - (b.Frames - b.DigestFrames)
		if dataFrames != 0 {
			t.Errorf("%s sent %d data frames while idle (digest frames %d, wire +%d B, wants +%d, repairs +%d)",
				st.ID(), dataFrames, a.DigestFrames-b.DigestFrames,
				a.WireBytes-b.WireBytes, a.WantShards-b.WantShards, a.RepairShards-b.RepairShards)
		}
	}
}

// TestCleanDigestPathNoAllocs pins the idle-store digest tick at zero
// allocations: with every shard's cached digest valid, the digest vector
// is a lock-free fill of a free-listed slice.
func TestCleanDigestPathNoAllocs(t *testing.T) {
	// Peerless: no write pipelines exist, so nothing allocates in the
	// background while the test measures.
	s, err := transport.StartStore(transport.StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Shards:     64,
		Factory:    protocol.NewDeltaBPRR(),
		ObjType:    func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery:  time.Hour,
	})
	if err != nil {
		t.Fatalf("StartStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	for k := 0; k < 512; k++ {
		s.Update(workload.Add(fmt.Sprintf("key-%04d", k), "e"))
	}
	s.CycleDigestVec() // compute caches, seed the free list
	if allocs := testing.AllocsPerRun(100, s.CycleDigestVec); allocs != 0 {
		t.Fatalf("clean-store digest path allocates %.1f per run, want 0", allocs)
	}
}
