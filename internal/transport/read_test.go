package transport_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// startSoloStore boots one peerless store for read-path tests: no sync
// traffic, just the sharded keyspace.
func startSoloStore(t *testing.T, shards int) *transport.Store {
	t.Helper()
	st, err := transport.StartStore(transport.StoreConfig{
		ID:         "solo",
		ListenAddr: "127.0.0.1:0",
		Peers:      map[string]string{},
		Shards:     shards,
		Engine:     transport.EngineDelta,
		ObjType:    func(string) workload.Datatype { return workload.GCounterType{} },
		SyncEvery:  time.Hour, // ticks never fire during the test
	})
	if err != nil {
		t.Fatalf("start store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestKeysSortedAcrossShards pins Store.Keys' contract: globally sorted
// key order, independent of how the hash scattered keys over shards, so
// example output and test diffs are deterministic.
func TestKeysSortedAcrossShards(t *testing.T) {
	st := startSoloStore(t, 8)
	const n = 200
	want := make([]string, 0, n)
	for i := n - 1; i >= 0; i-- { // inserted in reverse order on purpose
		k := fmt.Sprintf("key-%04d", i)
		want = append(want, k)
		st.Update(workload.Op{Kind: workload.KindInc, Key: k, N: 1})
	}
	sort.Strings(want)
	got := st.Keys()
	if len(got) != n {
		t.Fatalf("Keys returned %d keys, want %d", len(got), n)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatalf("Keys not sorted: %v...", got[:10])
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestGetCloneIsolation pins the contract Query deliberately relaxes:
// mutating the state returned by Get must never corrupt the store.
func TestGetCloneIsolation(t *testing.T) {
	st := startSoloStore(t, 4)
	st.Update(workload.Op{Kind: workload.KindInc, Key: "hits", N: 7})

	got := st.Get("hits").(*crdt.GCounter)
	if got.Value() != 7 {
		t.Fatalf("Get value = %d, want 7", got.Value())
	}
	// Scribble all over the returned snapshot.
	got.Inc("attacker", 1000)
	got.Merge(crdt.NewGCounter().Inc("other", 5000))

	if v := st.Get("hits").(*crdt.GCounter).Value(); v != 7 {
		t.Fatalf("store corrupted through Get snapshot: value = %d, want 7", v)
	}
	st.View("hits", func(live lattice.State) {
		if v := live.(*crdt.GCounter).Value(); v != 7 {
			t.Fatalf("live state corrupted through Get snapshot: value = %d, want 7", v)
		}
	})
}

// TestQueryVisitsShardSorted checks Query's contract: exactly the one
// shard's live objects, in sorted key order, and early stop on false.
func TestQueryVisitsShardSorted(t *testing.T) {
	st := startSoloStore(t, 8)
	const n = 64
	for i := 0; i < n; i++ {
		st.Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%04d", i), N: uint64(i + 1)})
	}
	seen := map[string]uint64{}
	for shard := 0; shard < st.NumShards(); shard++ {
		var prev string
		st.Query(shard, func(key string, s lattice.State) bool {
			if key <= prev && prev != "" {
				t.Fatalf("shard %d visited %q after %q (not sorted)", shard, key, prev)
			}
			prev = key
			if _, dup := seen[key]; dup {
				t.Fatalf("key %q visited by two shards", key)
			}
			seen[key] = s.(*crdt.GCounter).Value()
			return true
		})
	}
	if len(seen) != n {
		t.Fatalf("Query visited %d keys across shards, want %d", len(seen), n)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if seen[k] != uint64(i+1) {
			t.Fatalf("key %q value %d, want %d", k, seen[k], i+1)
		}
	}
	// Early stop: at most one visit.
	visits := 0
	st.Query(0, func(string, lattice.State) bool { visits++; return false })
	if visits > 1 {
		t.Fatalf("Query kept visiting after false: %d visits", visits)
	}
	// Out-of-range shards visit nothing rather than panic.
	st.Query(-1, func(string, lattice.State) bool { t.Fatal("visited shard -1"); return false })
	st.Query(st.NumShards(), func(string, lattice.State) bool { t.Fatal("visited shard N"); return false })
}

// TestQueryAllocFree pins the acceptance criterion: Query must not
// allocate per visited object (Get, by contrast, clones every state).
func TestQueryAllocFree(t *testing.T) {
	st := startSoloStore(t, 1) // one shard: every key in shard 0
	const n = 512
	for i := 0; i < n; i++ {
		st.Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%04d", i), N: 1})
	}
	var sum uint64
	visit := func(key string, s lattice.State) bool {
		sum += s.(*crdt.GCounter).Value()
		return true
	}
	allocs := testing.AllocsPerRun(20, func() {
		st.Query(0, visit)
	})
	if sum == 0 {
		t.Fatal("Query visited nothing")
	}
	// Zero allocations for the whole 512-object visit — i.e. strictly
	// allocation-free per object, not merely cheap.
	if allocs != 0 {
		t.Fatalf("Query allocated %.1f times per 512-object visit, want 0", allocs)
	}
}

// TestScanPrefixSortedAcrossShards checks Scan's determinism: globally
// sorted key order regardless of shard layout, exact prefix filtering,
// and early stop.
func TestScanPrefixSortedAcrossShards(t *testing.T) {
	for _, shards := range []int{1, 4, 32} {
		st := startSoloStore(t, shards)
		var wantUsers []string
		for i := 0; i < 50; i++ {
			u := fmt.Sprintf("user/%04d", i)
			wantUsers = append(wantUsers, u)
			st.Update(workload.Op{Kind: workload.KindInc, Key: u, N: 1})
			st.Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("item/%04d", i), N: 1})
		}
		sort.Strings(wantUsers)
		var got []string
		st.Scan("user/", func(key string, s lattice.State) bool {
			if !strings.HasPrefix(key, "user/") {
				t.Fatalf("shards=%d: Scan(user/) visited %q", shards, key)
			}
			if s == nil || s.(*crdt.GCounter).Value() != 1 {
				t.Fatalf("shards=%d: Scan visited %q with wrong state %v", shards, key, s)
			}
			got = append(got, key)
			return true
		})
		if len(got) != len(wantUsers) {
			t.Fatalf("shards=%d: Scan visited %d keys, want %d", shards, len(got), len(wantUsers))
		}
		for i := range got {
			if got[i] != wantUsers[i] {
				t.Fatalf("shards=%d: Scan[%d] = %q, want %q (order must be global, not per-shard)",
					shards, i, got[i], wantUsers[i])
			}
		}
		// Early stop.
		visits := 0
		st.Scan("user/", func(string, lattice.State) bool { visits++; return false })
		if visits != 1 {
			t.Fatalf("shards=%d: Scan kept visiting after false: %d visits", shards, visits)
		}
		// A prefix matching nothing visits nothing: between two keys, past
		// the last key, before the first, and a key extended by one byte.
		for _, prefix := range []string{"nope/", "user/0049x", "user/005", "zzz", "a", "item/0000\x00"} {
			st.Scan(prefix, func(k string, _ lattice.State) bool { t.Fatalf("Scan(%q) visited %q", prefix, k); return false })
		}
		// A prefix equal to a key visits that key and whatever extends it.
		st.Update(workload.Op{Kind: workload.KindInc, Key: "user/0007/sub", N: 1})
		got = got[:0]
		st.Scan("user/0007", func(k string, _ lattice.State) bool { got = append(got, k); return true })
		if fmt.Sprint(got) != "[user/0007 user/0007/sub]" {
			t.Fatalf("shards=%d: Scan(user/0007) visited %v", shards, got)
		}
		// The empty prefix visits everything, in order.
		got = got[:0]
		st.Scan("", func(k string, _ lattice.State) bool { got = append(got, k); return true })
		if len(got) != 101 || !sort.StringsAreSorted(got) || got[0] != "item/0000" || got[100] != "user/0049" {
			t.Fatalf("shards=%d: Scan(\"\") visited %d keys from %q to %q", shards, len(got), got[0], got[len(got)-1])
		}
	}
}

// TestViewZeroCloneSingleKey checks View finds live state and reports
// missing keys.
func TestViewZeroCloneSingleKey(t *testing.T) {
	st := startSoloStore(t, 4)
	st.Update(workload.Op{Kind: workload.KindInc, Key: "hits", N: 3})
	found := st.View("hits", func(s lattice.State) {
		if v := s.(*crdt.GCounter).Value(); v != 3 {
			t.Fatalf("View value = %d, want 3", v)
		}
	})
	if !found {
		t.Fatal("View did not find existing key")
	}
	if st.View("missing", func(lattice.State) { t.Fatal("fn called for missing key") }) {
		t.Fatal("View claimed a missing key exists")
	}
}
