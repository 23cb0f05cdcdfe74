package transport_test

import (
	"fmt"
	"testing"
	"time"

	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// TestStoreSkipsCleanShards pins the O(dirty shards) tick: a converged,
// idle store's SyncNow must produce no data frames at all (digests
// disabled here), because every clean shard is skipped outright.
func TestStoreSkipsCleanShards(t *testing.T) {
	stores := startStoreCluster(t, 2, 8, transport.EngineDelta, time.Hour)
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

// TestCleanDigestPathNoAllocs pins the idle-store digest at zero
// allocations: with every shard's cached digest valid, the digest vector
// is the core's own, filled with a load per shard.
func TestCleanDigestPathNoAllocs(t *testing.T) {
	// Peerless: no write pipelines exist, so nothing allocates in the
	// background while the test measures.
	s, err := transport.StartStore(transport.StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Shards:     64,
		Engine:     transport.EngineDelta,
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
	s.Digest() // compute the caches
	if allocs := testing.AllocsPerRun(100, func() { s.Digest() }); allocs != 0 {
		t.Fatalf("clean-store digest path allocates %.1f per run, want 0", allocs)
	}
}
