package crdtsync_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"crdtsync"
)

// openCluster boots n fully meshed replicas with fast ticks and digest
// anti-entropy, closed at test end.
func openCluster(t *testing.T, n int, opts ...crdtsync.Option) []*crdtsync.Store {
	t.Helper()
	opts = append([]crdtsync.Option{
		crdtsync.WithSyncEvery(10 * time.Millisecond),
		crdtsync.WithDigestEvery(4),
		crdtsync.WithShards(8),
	}, opts...)
	stores, err := crdtsync.Cluster(n, opts...)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	for _, st := range stores {
		st := st
		t.Cleanup(func() { st.Close() })
	}
	return stores
}

// TestTypedHandlesConverge is the public-API end-to-end test: three
// replicas mutate counters, sets and maps through typed handles and
// converge to identical values everywhere.
func TestTypedHandlesConverge(t *testing.T) {
	stores := openCluster(t, 3)

	// Counter: every replica increments the same counter.
	for i, st := range stores {
		st.Counter("hits").Inc(uint64(i + 1)) // 1+2+3 = 6
	}
	// Set: each replica contributes distinct elements.
	for i, st := range stores {
		st.Set("tags").Add(fmt.Sprintf("tag-%d", i))
	}
	// Map: disjoint fields from different replicas, plus one LWW
	// conflict on a shared field (resolved by version, then writer id).
	for i, st := range stores {
		st.Map("profile").Put(fmt.Sprintf("field-%d", i), fmt.Sprintf("val-%d", i))
		st.Map("profile").Put("shared", fmt.Sprintf("from-%d", i))
	}

	// 1 counter + 1 set + 3 disjoint fields + 1 shared field = 6 objects.
	if err := crdtsync.WaitConverged(stores, 6, 10*time.Second, nil); err != nil {
		t.Fatal(err)
	}

	for _, st := range stores {
		if v := st.Counter("hits").Value(); v != 6 {
			t.Errorf("%s: counter = %d, want 6", st.ID(), v)
		}
		want := []string{"tag-0", "tag-1", "tag-2"}
		if got := st.Set("tags").Elems(); !equalStrings(got, want) {
			t.Errorf("%s: set = %v, want %v", st.ID(), got, want)
		}
		if !st.Set("tags").Contains("tag-1") {
			t.Errorf("%s: set missing tag-1", st.ID())
		}
		m := st.Map("profile")
		for i := 0; i < 3; i++ {
			if v, ok := m.Get(fmt.Sprintf("field-%d", i)); !ok || v != fmt.Sprintf("val-%d", i) {
				t.Errorf("%s: map field-%d = %q (ok=%t)", st.ID(), i, v, ok)
			}
		}
		// All writes used version 1, so the LWW tie breaks by writer id:
		// the lexicographically greatest writer wins on every replica.
		if v, ok := m.Get("shared"); !ok || !strings.HasPrefix(v, "from-") {
			t.Errorf("%s: map shared = %q (ok=%t)", st.ID(), v, ok)
		}
	}
	// The conflicting field resolved identically everywhere.
	v0, _ := stores[0].Map("profile").Get("shared")
	for _, st := range stores[1:] {
		if v, _ := st.Map("profile").Get("shared"); v != v0 {
			t.Errorf("LWW divergence: %s has %q, %s has %q", stores[0].ID(), v0, st.ID(), v)
		}
	}
}

// TestHandleZeroValues checks reads of never-written objects.
func TestHandleZeroValues(t *testing.T) {
	st := openCluster(t, 1)[0]
	if v := st.Counter("nope").Value(); v != 0 {
		t.Errorf("unwritten counter = %d", v)
	}
	if n := st.Set("nope").Len(); n != 0 {
		t.Errorf("unwritten set len = %d", n)
	}
	if st.Set("nope").Contains("x") {
		t.Error("unwritten set contains x")
	}
	if _, ok := st.Map("nope").Get("f"); ok {
		t.Error("unwritten map field ok")
	}
	if got := st.Map("nope").Fields(); len(got) != 0 {
		t.Errorf("unwritten map fields = %v", got)
	}
}

// TestScanAndQueryOverHandles checks that the public read layer ranges
// over the typed namespaces deterministically.
func TestScanAndQueryOverHandles(t *testing.T) {
	st := openCluster(t, 1)[0]
	for i := 0; i < 20; i++ {
		st.Counter(fmt.Sprintf("cnt-%03d", i)).Inc(uint64(i) + 1)
	}
	st.Set("one").Add("a")
	st.Map("prof").Put("f", "v")

	// Scan the counter namespace: sorted, counters only.
	var keys []string
	st.Scan(crdtsync.CounterPrefix, func(key string, _ crdtsync.State) bool {
		keys = append(keys, key)
		return true
	})
	if len(keys) != 20 || !sort.StringsAreSorted(keys) {
		t.Fatalf("Scan(c/) = %d keys (sorted=%t), want 20 sorted", len(keys), sort.StringsAreSorted(keys))
	}
	for _, k := range keys {
		if !strings.HasPrefix(k, crdtsync.CounterPrefix) {
			t.Fatalf("Scan(c/) leaked key %q", k)
		}
	}
	// Query every shard: the union covers the whole keyspace exactly.
	total := 0
	for shard := 0; shard < st.NumShards(); shard++ {
		st.Query(shard, func(string, crdtsync.State) bool { total++; return true })
	}
	if want := st.NumKeys(); total != want {
		t.Fatalf("Query union visited %d objects, want %d", total, want)
	}
	// Keys is globally sorted and covers all namespaces.
	all := st.Keys()
	if len(all) != 22 || !sort.StringsAreSorted(all) {
		t.Fatalf("Keys = %d (sorted=%t), want 22 sorted", len(all), sort.StringsAreSorted(all))
	}
}

// TestWatchPublicAPI checks Watch through the public surface: local and
// remote changes to a namespace arrive as events.
func TestWatchPublicAPI(t *testing.T) {
	stores := openCluster(t, 2)
	w := stores[1].Watch(crdtsync.CounterPrefix)
	defer w.Close()

	stores[0].Counter("watched").Inc(1)
	stores[1].Counter("local").Inc(1)
	stores[0].Set("invisible").Add("x") // other namespace

	seen := map[string]bool{}
	deadline := time.After(10 * time.Second)
	for len(seen) < 2 {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatal("Events closed early")
			}
			if !strings.HasPrefix(ev.Key, crdtsync.CounterPrefix) {
				t.Fatalf("watch leaked key %q", ev.Key)
			}
			seen[ev.Key] = true
		case <-deadline:
			t.Fatalf("timed out, saw %v", seen)
		}
	}
	if !seen["c/watched"] || !seen["c/local"] {
		t.Fatalf("wrong event set %v", seen)
	}
}

// TestGetSnapshotIsolation pins the public Get contract: the returned
// snapshot is private.
func TestGetSnapshotIsolation(t *testing.T) {
	st := openCluster(t, 1)[0]
	c := st.Counter("iso")
	c.Inc(5)
	snap := st.Get(c.Key())
	if snap == nil {
		t.Fatal("Get returned nil for existing key")
	}
	snap.Merge(snap.Clone()) // arbitrary mutation of the snapshot
	other := st.Get(c.Key())
	snap.Merge(other)
	if v := c.Value(); v != 5 {
		t.Fatalf("store corrupted through Get snapshot: %d, want 5", v)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkRead compares the three read strengths on a 10k-counter
// store: Get clones every object, Query visits a shard's live objects
// with zero allocation, Scan adds the global ordering pass. bench/
// measures Query and Scan at workload size (transport.query_keys_per_s,
// transport.scan_keys_per_s); the Get arm exists only here.
func BenchmarkRead(b *testing.B) {
	st, err := crdtsync.Open(crdtsync.WithShards(64))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	const keys = 10000
	for i := 0; i < keys; i++ {
		st.Counter(fmt.Sprintf("bench-%05d", i)).Inc(1)
	}
	kl := st.Keys()

	b.Run("get-clone-everything", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sum int
			for _, k := range kl {
				sum += st.Get(k).Elements()
			}
			if sum != keys {
				b.Fatalf("sum %d", sum)
			}
		}
	})
	b.Run("query-zero-clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sum int
			for shard := 0; shard < st.NumShards(); shard++ {
				st.Query(shard, func(_ string, s crdtsync.State) bool {
					sum += s.Elements()
					return true
				})
			}
			if sum != keys {
				b.Fatalf("sum %d", sum)
			}
		}
	})
	b.Run("scan-sorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sum int
			st.Scan(crdtsync.CounterPrefix, func(_ string, s crdtsync.State) bool {
				sum += s.Elements()
				return true
			})
			if sum != keys {
				b.Fatalf("sum %d", sum)
			}
		}
	})
}
