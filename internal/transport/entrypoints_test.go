package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdtsync/internal/lattice"
	"crdtsync/internal/workload"
)

// TestEveryEntryPointAtOnce runs every way into a store at once, on a
// 3-store loopback mesh with digests and snapshots on: writes, reads
// (Get, View, Scan, Query, Keys, NumKeys, Memory), Digest, Stats, SyncNow,
// SnapshotNow and watchers that come and go, while the sync loops tick and
// the read goroutines deliver. Under -race it checks that the core's one
// lock and the shards' read locks cover everything the calls share; at the
// end every replica must hold the sequential join of the writes, and
// Close, racing watchers and stats readers, must close every watcher.
func TestEveryEntryPointAtOnce(t *testing.T) {
	const writes = 300
	stores, err := LoopbackClusterWith(3, StoreConfig{
		ID:          "e",
		Shards:      8,
		Engine:      EngineAcked,
		ObjType:     simObjType,
		SyncEvery:   5 * time.Millisecond,
		DigestEvery: 4,
	}, func(_ int, _ string, cfg *StoreConfig) {
		cfg.SnapshotDir = t.TempDir()
		cfg.SnapshotEvery = 20 * time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stores {
		s := s
		t.Cleanup(func() { s.Close() })
	}

	// Everything but the writes, one call on one of the loops below per
	// beat, which every write sends: free-running, the calls that cost
	// least would starve the writers of the core's lock.
	beat, stop := make(chan struct{}), make(chan struct{})
	var others sync.WaitGroup
	var calls atomic.Int64
	loop := func(f func(s *Store, n int)) {
		for _, s := range stores {
			s := s
			others.Add(1)
			go func() {
				defer others.Done()
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					case <-beat:
					}
					f(s, n)
					calls.Add(1)
				}
			}()
		}
	}
	loop(func(s *Store, n int) {
		switch n % 7 {
		case 0:
			s.Get(fmt.Sprintf("c/k%02d", n%40))
		case 1:
			s.View(fmt.Sprintf("s/k%02d", n%40), func(st lattice.State) { st.Elements() })
		case 2:
			s.Scan("m/", func(string, lattice.State) bool { return n%2 == 0 })
		case 3:
			s.Query(n%s.NumShards(), func(string, lattice.State) bool { return true })
		case 4:
			s.Keys()
		case 5:
			s.NumKeys()
		default:
			s.Memory()
		}
	})
	loop(func(s *Store, n int) {
		switch n % 5 {
		case 0:
			s.Digest()
		case 1:
			s.Stats()
		case 2:
			s.Ticks()
		case 3:
			s.SyncNow()
		default:
			if err := s.SnapshotNow(); err != nil {
				t.Errorf("%s: SnapshotNow: %v", s.ID(), err)
			}
		}
	})
	loop(func(s *Store, n int) {
		w := s.Watch("c/", 4)
		select {
		case <-w.Events():
		case <-time.After(time.Millisecond):
		}
		w.Close()
	})

	// The writers: each store's own ops in order, counters and sets that
	// every store writes, and map fields of one writer each. refs[i] is
	// the join of store i's ops; the sequential join is the join of all
	// three.
	refs := make([]map[string]lattice.State, len(stores))
	var writers sync.WaitGroup
	for i, s := range stores {
		i, s := i, s
		refs[i] = make(map[string]lattice.State)
		writers.Add(1)
		go func() {
			defer writers.Done()
			for n := 0; n < writes; n++ {
				var op workload.Op
				switch n % 3 {
				case 0:
					op = workload.Inc(fmt.Sprintf("c/k%02d", n%40), uint64(i+1))
				case 1:
					op = workload.Add(fmt.Sprintf("s/k%02d", n%40), fmt.Sprintf("%s-e%d", s.ID(), n))
				default:
					op = workload.Put(fmt.Sprintf("m/%s-%02d/f", s.ID(), n%20), fmt.Sprintf("v%d", n))
				}
				dt := simObjType(op.Key)
				ref := refs[i][op.Key]
				if ref == nil {
					ref = dt.New()
					refs[i][op.Key] = ref
				}
				ref.Merge(dt.Delta(ref, s.ID(), op))
				s.Update(op)
				beat <- struct{}{}
				beat <- struct{}{}
			}
		}()
	}
	writers.Wait()
	close(stop)
	others.Wait()
	t.Logf("%d calls alongside %d writes per store", calls.Load(), writes)

	want := make(map[string]lattice.State)
	for _, ref := range refs {
		for k, st := range ref {
			if w, ok := want[k]; ok {
				w.Merge(st)
			} else {
				want[k] = st.Clone()
			}
		}
	}
	if err := WaitConverged(stores, len(want), 30*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	for _, s := range stores {
		for k, w := range want {
			if got := s.Get(k); got == nil || !got.Equal(w) {
				t.Fatalf("%s's %s is %v, not the sequential join %v", s.ID(), k, got, w)
			}
		}
	}
	// Close, racing the calls that register watchers and read counters:
	// every watcher ends up closed, whichever side of Close it registered.
	var racers sync.WaitGroup
	watchers := make(chan *Watcher, 1024)
	for _, s := range stores {
		s := s
		racers.Add(1)
		go func() {
			defer racers.Done()
			for n := 0; n < 100; n++ {
				watchers <- s.Watch("", 4)
				s.Stats()
				s.Digest()
			}
		}()
	}
	for _, s := range stores {
		if err := s.Close(); err != nil {
			t.Errorf("%s: Close: %v", s.ID(), err)
		}
	}
	racers.Wait()
	close(watchers)
	for w := range watchers {
		for range w.Events() {
		}
	}
}
