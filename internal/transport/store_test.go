package transport_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// startStoreCluster boots n fully meshed stores on loopback, all
// replicating per-key GCounters under the given engine.
func startStoreCluster(t *testing.T, n, shards int, engine transport.Engine, syncEvery time.Duration) []*transport.Store {
	t.Helper()
	stores, err := transport.LoopbackCluster(n, transport.StoreConfig{
		ID:        "s",
		Shards:    shards,
		Engine:    engine,
		ObjType:   func(string) workload.Datatype { return workload.GCounterType{} },
		SyncEvery: syncEvery,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	for _, st := range stores {
		st := st
		t.Cleanup(func() { st.Close() })
	}
	return stores
}

// waitStoresConverged polls digests until all stores agree and hold
// wantKeys keys.
func waitStoresConverged(t *testing.T, stores []*transport.Store, wantKeys int, timeout time.Duration) {
	t.Helper()
	if err := transport.WaitConverged(stores, wantKeys, timeout, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStoreMultiKeyConvergence(t *testing.T) {
	const keys = 300
	stores := startStoreCluster(t, 3, 8, transport.EngineDelta, 20*time.Millisecond)
	// Each store increments a disjoint third of the keyspace.
	for i, st := range stores {
		for k := i; k < keys; k += 3 {
			st.Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%04d", k), N: uint64(i + 1)})
		}
	}
	waitStoresConverged(t, stores, keys, 10*time.Second)
	// Deep-check a few objects: every store sees the same counter value.
	for _, k := range []int{0, 1, 2, 299} {
		key := fmt.Sprintf("key-%04d", k)
		want := stores[0].Get(key)
		if want == nil {
			t.Fatalf("key %s missing on %s", key, stores[0].ID())
		}
		wantV := want.(*crdt.GCounter).Value()
		if wantV != uint64(k%3+1) {
			t.Errorf("key %s value = %d, want %d", key, wantV, k%3+1)
		}
		for _, st := range stores[1:] {
			got := st.Get(key)
			if got == nil || !got.Equal(want) {
				t.Errorf("key %s differs on %s", key, st.ID())
			}
		}
	}
}

func TestStoreConcurrentUpdates(t *testing.T) {
	// Hammer every store from several goroutines on overlapping keys
	// while syncs run; -race must stay silent and the cluster converge.
	const (
		workers   = 4
		perWorker = 200
		keys      = 50
	)
	stores := startStoreCluster(t, 3, 4, transport.EngineDelta, 10*time.Millisecond)
	var wg sync.WaitGroup
	for _, st := range stores {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(st *transport.Store, w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					st.Update(workload.Op{
						Kind: workload.KindInc,
						Key:  fmt.Sprintf("key-%02d", (w*perWorker+i)%keys),
						N:    1,
					})
				}
			}(st, w)
		}
	}
	wg.Wait()
	waitStoresConverged(t, stores, keys, 15*time.Second)
	// Total across all keys must equal every increment applied.
	var total uint64
	for _, key := range stores[0].Keys() {
		total += stores[0].Get(key).(*crdt.GCounter).Value()
	}
	want := uint64(len(stores) * workers * perWorker)
	if total != want {
		t.Errorf("total counter mass = %d, want %d", total, want)
	}
}

func TestStoreBatchesFramesPerTick(t *testing.T) {
	stores := startStoreCluster(t, 2, 8, transport.EngineDelta, time.Hour)
	const keys = 64
	for k := 0; k < keys; k++ {
		stores[0].Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%03d", k), N: 1})
	}
	stores[0].SyncNow()
	waitStoresConverged(t, stores, keys, 5*time.Second)
	st := stores[0].Stats()
	// 64 dirty keys across 8 shards to 1 peer must coalesce into a
	// single TCP frame behind the connection's hello, not one frame per
	// key or per shard.
	if st.Frames-st.HelloFrames != 1 {
		t.Errorf("frames = %d, %d of them hellos, want 1 of data (coalesced)", st.Frames, st.HelloFrames)
	}
	if st.Sent.Elements != keys {
		t.Errorf("elements shipped = %d, want %d", st.Sent.Elements, keys)
	}
	if st.WireBytes == 0 {
		t.Error("wire bytes not recorded")
	}
}

func TestStoreShardKeyIsolation(t *testing.T) {
	// Single store, no peers: updates on distinct keys land in distinct
	// per-key objects, and Get snapshots are isolated from later updates.
	st, err := transport.StartStore(transport.StoreConfig{
		ID:         "solo",
		ListenAddr: "127.0.0.1:0",
		Peers:      map[string]string{},
		Shards:     3, // rounds up to 4
		Engine:     transport.EngineDelta,
		ObjType:    func(string) workload.Datatype { return workload.GCounterType{} },
		SyncEvery:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.NumShards(); got != 4 {
		t.Errorf("shards = %d, want 4 (next power of two)", got)
	}
	st.Update(workload.Op{Kind: workload.KindInc, Key: "a", N: 5})
	st.Update(workload.Op{Kind: workload.KindInc, Key: "b", N: 7})
	snap := st.Get("a")
	st.Update(workload.Op{Kind: workload.KindInc, Key: "a", N: 1})
	if v := snap.(*crdt.GCounter).Value(); v != 5 {
		t.Errorf("snapshot value = %d, want 5 (isolation broken)", v)
	}
	if v := st.Get("a").(*crdt.GCounter).Value(); v != 6 {
		t.Errorf("a = %d, want 6", v)
	}
	if v := st.Get("b").(*crdt.GCounter).Value(); v != 7 {
		t.Errorf("b = %d, want 7", v)
	}
	if st.Get("missing") != nil {
		t.Error("unknown key should return nil")
	}
}

func TestStoreCloseIsClean(t *testing.T) {
	stores := startStoreCluster(t, 2, 4, transport.EngineDelta, 10*time.Millisecond)
	stores[0].Update(workload.Op{Kind: workload.KindInc, Key: "k", N: 1})
	if err := stores[0].Close(); err != nil && !isUseOfClosed(err) {
		t.Errorf("close: %v", err)
	}
	// Survivor keeps working with its peer down: sends are dropped.
	stores[1].Update(workload.Op{Kind: workload.KindInc, Key: "k", N: 1})
	stores[1].SyncNow()
}

func isUseOfClosed(err error) bool {
	return err != nil && strings.Contains(err.Error(), "use of closed")
}

func TestStoreIDLengthLimit(t *testing.T) {
	// A frame spends two bytes on the sender id's length: a longer id
	// would corrupt every frame the store sends, so it must not start.
	for _, c := range []struct {
		idLen int
		ok    bool
	}{
		{1<<16 - 1, true},
		{1 << 16, false},
	} {
		st, err := transport.StartStore(transport.StoreConfig{
			ID:         strings.Repeat("x", c.idLen),
			ListenAddr: "127.0.0.1:0",
			Engine:     transport.EngineDelta,
			ObjType:    gcounters,
		})
		if err == nil {
			st.Close()
		}
		if (err == nil) != c.ok {
			t.Errorf("id of %d bytes: err = %v, want started = %v", c.idLen, err, c.ok)
		}
	}
}

// TestGetMapFieldHoldsCallersKey: a map field's state shares its key with
// the store's key record, a slice of a key chunk of up to 64 KB. The
// clone Get hands out holds the caller's key instead, so a clone kept
// past Close keeps no chunk alive.
func TestGetMapFieldHoldsCallersKey(t *testing.T) {
	s, err := transport.StartStore(transport.StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Shards:     1,
		Engine:     transport.EngineDelta,
		ObjType:    func(string) workload.Datatype { return workload.LWWMapType{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Update(workload.Put("m/n000001/f01", "v"))
	key := strings.Clone("m/n000001/f01")
	es := s.Get(key).(*lattice.Map).Sorted()
	if len(es) != 1 || es[0].Key != key || unsafe.StringData(es[0].Key) != unsafe.StringData(key) {
		t.Errorf("Get(%q) holds %v, not the caller's key", key, es)
	}
}
