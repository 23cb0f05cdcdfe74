package transport_test

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// startFaultyCluster mirrors transport.LoopbackCluster but wires one
// fault injector per store (faultFor may return nil for a clean store),
// so tests can cut or degrade individual links and directions.
func startFaultyCluster(t *testing.T, n int, template transport.StoreConfig, faultFor func(i int, id string) *transport.Fault) []*transport.Store {
	t.Helper()
	ids := make([]string, n)
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("s-%02d", i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	stores := make([]*transport.Store, n)
	for i := range stores {
		peers := make(map[string]string)
		for j := range ids {
			if j != i {
				peers[ids[j]] = addrs[j]
			}
		}
		cfg := template
		cfg.ID = ids[i]
		cfg.Listener = listeners[i]
		cfg.Peers = peers
		if f := faultFor(i, ids[i]); f != nil {
			cfg.Dial = f.Dialer(nil)
		}
		st, err := transport.StartStore(cfg)
		if err != nil {
			t.Fatalf("start %s: %v", ids[i], err)
		}
		stores[i] = st
		t.Cleanup(func() { st.Close() })
	}
	return stores
}

// TestStoreConvergesUnderFrameLoss drops 20% of all frames on every link
// and demands digest-checked convergence anyway. The plain delta engine
// clears its δ-buffer after each send, so a dropped frame is gone for
// good at the protocol level — only the store's digest anti-entropy can
// observe and repair the divergence. The acked engine additionally
// retransmits, so both repair paths are exercised.
func TestStoreConvergesUnderFrameLoss(t *testing.T) {
	for _, tc := range []struct {
		name        string
		factory     protocol.Factory
		digestEvery int
	}{
		{"digest-repairs-plain-delta", protocol.NewDeltaBPRR(), 1},
		{"acked-retransmits", protocol.NewDeltaAcked(true, true), 0},
		{"acked-plus-digest", protocol.NewDeltaAcked(true, true), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const keys = 90
			fault := transport.NewFault(1)
			fault.SetDropRate(0.2)
			shared := func(int, string) *transport.Fault { return fault }
			stores := startFaultyCluster(t, 3, transport.StoreConfig{
				Shards:      8,
				Factory:     tc.factory,
				ObjType:     func(string) workload.Datatype { return workload.GCounterType{} },
				SyncEvery:   15 * time.Millisecond,
				DigestEvery: tc.digestEvery,
			}, shared)
			// Spread the load over many sync ticks so plenty of distinct
			// frames hit the 20% loss, instead of one giant first batch.
			for k := 0; k < keys; k++ {
				stores[k%3].Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%03d", k), N: 1})
				if k%10 == 9 {
					time.Sleep(5 * time.Millisecond)
				}
			}
			if err := transport.WaitConverged(stores, keys, 60*time.Second, nil); err != nil {
				t.Fatal(err)
			}
			// Convergence must be exact, not just digest-equal: every key
			// carries exactly its one increment, loss notwithstanding.
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("key-%03d", k)
				for _, st := range stores {
					got := st.Get(key)
					if got == nil {
						t.Fatalf("%s missing on %s", key, st.ID())
					}
					if v := got.(*crdt.GCounter).Value(); v != 1 {
						t.Errorf("%s on %s = %d, want 1", key, st.ID(), v)
					}
				}
			}
		})
	}
}

// TestStoreConvergesUnderHalfFrameLoss is the README's claim as a test:
// the plain delta engine — which forgets a δ-group once sent, so every
// lost frame is divergence only anti-entropy can see — converges a
// 3-node, 20 000-key cluster with half of all frames dropped on every
// link. A drill is four frames, so one in sixteen survives end to end;
// what carries the cluster is that each one that does repairs both
// directions of everything the two ends differ in on that shard, and that
// a drill whose frame is lost costs one RepairTimeout, not a demotion to
// some other path.
func TestStoreConvergesUnderHalfFrameLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("20k keys under 50% frame loss; skipped under -short")
	}
	const keys = 20000
	fault := transport.NewFault(50)
	fault.SetDropRate(0.5)
	stores := startFaultyCluster(t, 3, transport.StoreConfig{
		Shards:      64,
		Factory:     protocol.NewDeltaBPRR(),
		ObjType:     gcounters,
		SyncEvery:   10 * time.Millisecond,
		DigestEvery: 4,
		// The retry cadence is what the run time is made of: ~10 s at this
		// setting, ~50 s at the default of 1 s (and 92 s, with eight times
		// the repair bytes, before the drill closed both ways).
		RepairTimeout: 200 * time.Millisecond,
	}, func(int, string) *transport.Fault { return fault })
	for k := 0; k < keys; k++ {
		stores[k%3].Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%05d", k), N: 1})
		if k%500 == 499 {
			time.Sleep(5 * time.Millisecond) // many frames, so that many are lost
		}
	}
	if err := transport.WaitConverged(stores, keys, 120*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	var total transport.StoreStats
	for _, st := range stores {
		total.Add(st.Stats())
	}
	if total.RepairBytes == 0 || total.DedupedWants == 0 {
		t.Errorf("convergence without anti-entropy under 50%% loss: %d repair bytes, %d deduped", total.RepairBytes, total.DedupedWants)
	}
	t.Logf("tree rounds %d, whole-shard wants %d, ranges answered %d, repair bytes %d, deduped %d, drills given up %d",
		total.TreeRounds, total.WantShards, total.RepairRanges, total.RepairBytes, total.DedupedWants, total.RepairTimeouts)
}

// TestStorePartitionHealsToConvergence cuts one store off from the other
// two, lets both sides write, and demands convergence after the partition
// heals. With the plain delta engine every frame sent into the partition
// is cleared from the δ-buffers and lost, so healing relies entirely on
// the digest exchange noticing that shard digests differ and pulling the
// missing shards in full.
func TestStorePartitionHealsToConvergence(t *testing.T) {
	const keys = 60
	var partitioned atomic.Bool
	partitioned.Store(true)
	side := map[string]int{"s-00": 0, "s-01": 1, "s-02": 1}
	faultFor := func(i int, id string) *transport.Fault {
		f := transport.NewFault(int64(i))
		f.SetSever(func(peer string) bool {
			return partitioned.Load() && side[id] != side[peer]
		})
		return f
	}
	stores := startFaultyCluster(t, 3, transport.StoreConfig{
		Shards:      8,
		Factory:     protocol.NewDeltaBPRR(),
		ObjType:     func(string) workload.Datatype { return workload.GCounterType{} },
		SyncEvery:   15 * time.Millisecond,
		DigestEvery: 1,
	}, faultFor)
	// Both sides of the partition write disjoint keys.
	for k := 0; k < keys; k++ {
		stores[k%3].Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%03d", k), N: 1})
	}
	// The majority side converges among itself while the minority is cut
	// off: s-01 and s-02 learn each other's keys but never s-00's extra
	// third, and s-00 learns nothing.
	pair := []*transport.Store{stores[1], stores[2]}
	if err := transport.WaitConverged(pair, keys-(keys+2)/3, 30*time.Second, nil); err != nil {
		t.Fatalf("majority side did not converge during partition: %v", err)
	}
	if got := stores[0].NumKeys(); got != (keys+2)/3 {
		t.Fatalf("partitioned store holds %d keys, want only its own %d", got, (keys+2)/3)
	}
	// Heal. Existing connections notice on their next frame; nothing is
	// redialed.
	partitioned.Store(false)
	if err := transport.WaitConverged(stores, keys, 60*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%03d", k)
		want := stores[0].Get(key)
		for _, st := range stores[1:] {
			if got := st.Get(key); got == nil || !got.Equal(want) {
				t.Errorf("%s differs on %s after heal", key, st.ID())
			}
		}
	}
	// The digest path must actually have fired: somebody observed
	// divergence and somebody served full shards.
	wants, repairs := 0, 0
	for _, st := range stores {
		s := st.Stats()
		wants += s.WantShards
		repairs += s.RepairShards
	}
	if wants == 0 || repairs == 0 {
		t.Errorf("digest repair never fired: wants=%d repairs=%d", wants, repairs)
	}
}
