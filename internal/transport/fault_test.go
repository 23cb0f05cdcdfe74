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
		cfg.Nodes = ids
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

// TestFaultReorderOnlyIsLossless pins the reorder-only mode: half of all
// outbound frames are held back 5ms (so later frames overtake them), on
// top of a 1ms receive-side delay on every store. The cluster runs the
// plain delta engine with digests DISABLED — an engine with no repair
// path whatsoever — so exact convergence is only possible if reorder mode
// truly never drops or duplicates a frame.
func TestFaultReorderOnlyIsLossless(t *testing.T) {
	const keys = 80
	fault := transport.NewFault(11)
	fault.SetReorder(0.5, 5*time.Millisecond)
	fault.SetRecvDelay(time.Millisecond)
	stores := startStoreClusterWith(t, 2, transport.StoreConfig{
		Shards:      8,
		Factory:     protocol.NewDeltaBPRR(),
		ObjType:     gcounters,
		SyncEvery:   10 * time.Millisecond,
		DigestEvery: 0, // no repair path: loss would be permanent divergence
	}, func(i int, id string, cfg *transport.StoreConfig) {
		cfg.Dial = fault.Dialer(nil)
		cfg.Listener = fault.Listener(cfg.Listener)
	})
	for k := 0; k < keys; k++ {
		stores[k%2].Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%03d", k), N: 2})
		if k%8 == 7 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := transport.WaitConverged(stores, keys, 60*time.Second, nil); err != nil {
		t.Fatalf("reorder-only faults lost or duplicated a frame: %v", err)
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%03d", k)
		for _, st := range stores {
			if v := st.Get(key).(*crdt.GCounter).Value(); v != 2 {
				t.Errorf("%s on %s = %d, want 2", key, st.ID(), v)
			}
		}
	}
}

// TestFaultRecvReorderOnlyIsLossless pins receive-side reorder: half of
// all inbound frames are parked for 5ms while the frames behind them are
// delivered first — reordering on the receive path, which SetReorder
// (send-only) could not produce and SetRecvDelay cannot either (it holds
// the whole stream back, preserving order). The cluster runs the plain
// delta engine with digests DISABLED — no repair path whatsoever — so
// exact convergence is only possible if recv reorder truly never drops or
// duplicates a frame.
func TestFaultRecvReorderOnlyIsLossless(t *testing.T) {
	const keys = 80
	fault := transport.NewFault(13)
	fault.SetRecvReorder(0.5, 5*time.Millisecond)
	stores := startStoreClusterWith(t, 2, transport.StoreConfig{
		Shards:      8,
		Factory:     protocol.NewDeltaBPRR(),
		ObjType:     gcounters,
		SyncEvery:   10 * time.Millisecond,
		DigestEvery: 0, // no repair path: loss would be permanent divergence
	}, func(i int, id string, cfg *transport.StoreConfig) {
		cfg.Listener = fault.Listener(cfg.Listener)
	})
	for k := 0; k < keys; k++ {
		stores[k%2].Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%03d", k), N: 2})
		if k%8 == 7 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := transport.WaitConverged(stores, keys, 60*time.Second, nil); err != nil {
		t.Fatalf("recv-reorder faults lost or duplicated a frame: %v", err)
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%03d", k)
		for _, st := range stores {
			if v := st.Get(key).(*crdt.GCounter).Value(); v != 2 {
				t.Errorf("%s on %s = %d, want 2", key, st.ID(), v)
			}
		}
	}
}

// TestFaultPerPeerOverrideBlackholesOnePeer drives ForPeer end to end:
// with only the override (global rates untouched) blackholing s-00's
// frames to s-01, nothing s-00 says arrives — the plain delta engine
// clears its buffers, so only digest repair could ever recover — and
// clearing the override through the same handle heals the link live.
func TestFaultPerPeerOverrideBlackholesOnePeer(t *testing.T) {
	const keys = 30
	fault := transport.NewFault(19)
	fault.ForPeer("s-01").SetDropRate(1)
	stores := startStoreClusterWith(t, 2, transport.StoreConfig{
		Shards:      8,
		Factory:     protocol.NewDeltaBPRR(),
		ObjType:     gcounters,
		SyncEvery:   10 * time.Millisecond,
		DigestEvery: 2,
	}, func(i int, id string, cfg *transport.StoreConfig) {
		if id == "s-00" {
			cfg.Dial = fault.Dialer(nil)
		}
	})
	for k := 0; k < keys; k++ {
		stores[0].Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%03d", k), N: 1})
	}
	// The override must hold: s-01 hears nothing, despite its own digest
	// advertisements making s-00 ask for every shard (the Want replies
	// are s-00 frames too, and die on the same override).
	time.Sleep(300 * time.Millisecond)
	if got := stores[1].NumKeys(); got != 0 {
		t.Fatalf("per-peer blackhole leaked: s-01 holds %d keys", got)
	}
	fault.ForPeer("s-01").SetDropRate(0)
	if err := transport.WaitConverged(stores, keys, 60*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%03d", k)
		if v := stores[1].Get(key).(*crdt.GCounter).Value(); v != 1 {
			t.Errorf("%s on s-01 = %d, want 1", key, v)
		}
	}
}

// TestFaultRecvDropIsPerDirection proves send and receive policies are
// independent: with s-00's receive side a total blackhole, everything
// s-00 says still reaches s-01, while s-00 itself learns nothing — and
// once the receive side heals, the acked engine retransmits its way to
// exact convergence.
func TestFaultRecvDropIsPerDirection(t *testing.T) {
	fault := transport.NewFault(5)
	fault.SetRecvDropRate(1)
	stores := startStoreClusterWith(t, 2, transport.StoreConfig{
		Shards:      8,
		Factory:     protocol.NewDeltaAcked(true, true),
		ObjType:     gcounters,
		SyncEvery:   10 * time.Millisecond,
		DigestEvery: 2,
	}, func(i int, id string, cfg *transport.StoreConfig) {
		if id == "s-00" {
			cfg.Listener = fault.Listener(cfg.Listener)
		}
	})
	stores[0].Update(workload.Op{Kind: workload.KindInc, Key: "from-zero", N: 1})
	stores[1].Update(workload.Op{Kind: workload.KindInc, Key: "from-one", N: 1})
	// Send direction unaffected: s-01 learns s-00's key.
	deadline := time.Now().Add(10 * time.Second)
	for stores[1].Get("from-zero") == nil {
		if time.Now().After(deadline) {
			t.Fatal("s-00's sends blocked by its receive-side faults")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Receive direction blackholed: s-00 must still know only itself,
	// despite s-01 retransmitting at it the whole time.
	time.Sleep(200 * time.Millisecond)
	if got := stores[0].NumKeys(); got != 1 {
		t.Fatalf("receive blackhole leaked: s-00 holds %d keys, want 1", got)
	}
	fault.SetRecvDropRate(0)
	if err := transport.WaitConverged(stores, 2, 30*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"from-zero", "from-one"} {
		for _, st := range stores {
			if v := st.Get(key).(*crdt.GCounter).Value(); v != 1 {
				t.Errorf("%s on %s = %d, want 1", key, st.ID(), v)
			}
		}
	}
}

// TestStoreConvergesUnderDupAndDelay duplicates 30% of frames and delays
// every frame by a few milliseconds (which also reorders them relative to
// replies). Merges are idempotent and acks tolerate replay, so every
// counter must still end at exactly its written value.
func TestStoreConvergesUnderDupAndDelay(t *testing.T) {
	const keys = 60
	fault := transport.NewFault(7)
	fault.SetDupRate(0.3)
	fault.SetDelay(3 * time.Millisecond)
	shared := func(int, string) *transport.Fault { return fault }
	stores := startFaultyCluster(t, 3, transport.StoreConfig{
		Shards:      8,
		Factory:     protocol.NewDeltaAcked(true, true),
		ObjType:     func(string) workload.Datatype { return workload.GCounterType{} },
		SyncEvery:   15 * time.Millisecond,
		DigestEvery: 2,
	}, shared)
	for k := 0; k < keys; k++ {
		stores[k%3].Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%03d", k), N: 3})
	}
	if err := transport.WaitConverged(stores, keys, 60*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%03d", k)
		for _, st := range stores {
			if v := st.Get(key).(*crdt.GCounter).Value(); v != 3 {
				t.Errorf("%s on %s = %d, want 3 (duplication double-counted?)", key, st.ID(), v)
			}
		}
	}
}

// TestStoreConvergesUnderLossReorderAndPartition combines the battery's
// faults on the acked engine with digests: 20% frame loss and reordering
// on every link, plus a partition that isolates one store while updates
// land on both sides, healed mid-run. Every counter must still end at
// exactly its written value on every store.
func TestStoreConvergesUnderLossReorderAndPartition(t *testing.T) {
	const keys = 120
	var partitioned atomic.Bool
	partitioned.Store(true)
	side := map[string]int{"s-00": 0, "s-01": 1, "s-02": 1}
	faultFor := func(i int, id string) *transport.Fault {
		f := transport.NewFault(int64(100 + i))
		f.SetDropRate(0.2)
		f.SetReorder(0.3, 3*time.Millisecond)
		f.SetSever(func(peer string) bool {
			return partitioned.Load() && side[id] != side[peer]
		})
		return f
	}
	stores := startFaultyCluster(t, 3, transport.StoreConfig{
		Shards:      16,
		Factory:     protocol.NewDeltaAcked(true, true),
		ObjType:     func(string) workload.Datatype { return workload.GCounterType{} },
		SyncEvery:   15 * time.Millisecond,
		DigestEvery: 2,
	}, faultFor)
	for k := 0; k < keys; k++ {
		stores[k%3].Update(workload.Inc(fmt.Sprintf("key-%03d", k), 1))
		if k%12 == 11 {
			time.Sleep(5 * time.Millisecond) // let ticks run mid-load
		}
	}
	partitioned.Store(false)
	if err := transport.WaitConverged(stores, keys, 90*time.Second, nil); err != nil {
		t.Fatal(err)
	}
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
}
