package transport_test

import (
	"fmt"
	"testing"
	"time"

	"crdtsync/internal/crdt"
	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// startCappedPair boots two meshed stores with a small frame cap so a
// modest batch overflows it.
func startCappedPair(t *testing.T, maxFrame int) []*transport.Store {
	t.Helper()
	stores, err := transport.LoopbackCluster(2, transport.Limited(transport.StoreConfig{
		ID:        "s",
		Shards:    8,
		Engine:    transport.EngineDelta,
		ObjType:   func(string) workload.Datatype { return workload.GCounterType{} },
		SyncEvery: time.Hour,
	}, 0, 0, maxFrame))
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	for _, st := range stores {
		st := st
		t.Cleanup(func() { st.Close() })
	}
	return stores
}

// TestStoreSplitsOversizedTickIntoFrames drives a single sync tick whose
// batch far exceeds the frame cap and requires it to arrive as multiple
// bounded frames and still converge — the backpressure path that replaces
// PR 1's behavior of relying on the 64 MiB cap never being hit (where the
// receiver would have rejected the one oversized frame and the tick would
// have been silently lost).
func TestStoreSplitsOversizedTickIntoFrames(t *testing.T) {
	const keys = 300
	stores := startCappedPair(t, 512)
	for k := 0; k < keys; k++ {
		stores[0].Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%04d", k), N: uint64(k + 1)})
	}
	stores[0].SyncNow()
	waitStoresConverged(t, stores, keys, 10*time.Second)
	st := stores[0].Stats()
	if st.Frames < 4 {
		t.Errorf("oversized tick produced %d frames, want several bounded ones", st.Frames)
	}
	if data := st.Frames - st.HelloFrames; st.SplitFrames != data {
		t.Errorf("split accounting: %d of %d data frames marked split", st.SplitFrames, data)
	}
	if st.OversizedDropped != 0 {
		t.Errorf("%d messages dropped as oversized; splitting should have bounded them", st.OversizedDropped)
	}
	// Deep-check: values survived the split intact.
	for _, k := range []int{0, 150, 299} {
		key := fmt.Sprintf("key-%04d", k)
		if v := stores[1].Get(key).(*crdt.GCounter).Value(); v != uint64(k+1) {
			t.Errorf("%s = %d on receiver, want %d", key, v, k+1)
		}
	}
}

// TestStoreSplitsWithinASingleShard forces the second splitting level: a
// cap small enough that even one shard's key batch overflows and must be
// divided inside the batch, not just across shard items.
func TestStoreSplitsWithinASingleShard(t *testing.T) {
	const keys = 64
	stores := startCappedPair(t, 512)
	for k := 0; k < keys; k++ {
		stores[0].Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%04d", k), N: 1})
	}
	stores[0].SyncNow()
	waitStoresConverged(t, stores, keys, 10*time.Second)
	st := stores[0].Stats()
	// 64 keys over 8 shards = 8 keys per shard; a 512 B cap cannot hold a
	// full shard batch of 8 GCounter deltas plus framing in all cases, so
	// more frames than shards prove intra-batch splitting ran.
	if st.OversizedDropped != 0 {
		t.Errorf("%d oversized drops; single deltas fit 512 B and must never be dropped", st.OversizedDropped)
	}
	if st.Frames <= 1 {
		t.Errorf("frames = %d, want the tick split across many", st.Frames)
	}
}

// TestStoreDropsIrreducibleOversizedMessage pins the only case splitting
// cannot solve: a single object's message alone above the cap. It must be
// dropped and counted — not sent (the receiver would kill the connection
// reading it) and not left to recurse forever.
func TestStoreDropsIrreducibleOversizedMessage(t *testing.T) {
	stores := startCappedPair(t, 24) // msg budget: 24 - 2 = 22 B (a data frame names no sender)
	stores[0].Update(workload.Op{Kind: workload.KindInc, Key: "key-far-too-long-to-fit", N: 1})
	stores[0].SyncNow()
	st := stores[0].Stats()
	if st.OversizedDropped != 1 {
		t.Errorf("oversized dropped = %d, want 1", st.OversizedDropped)
	}
	if st.Frames != 0 {
		t.Errorf("frames = %d, want 0 (nothing sendable)", st.Frames)
	}
}
