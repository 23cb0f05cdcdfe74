package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// startSoloStore builds one peerless store for direct inbound-path tests:
// frames are handed to s.deliver by hand, replies to the unknown sender
// are dropped by the peer net exactly as they would be for a vanished
// neighbor.
func startSoloStore(t testing.TB, shards int) *Store {
	return startSoloStoreWith(t, shards, protocol.NewDeltaBPRR())
}

// startSoloStoreWith is startSoloStore with a caller-chosen engine
// factory (the receive benchmark baselines against a pre-refactor
// engine replica).
func startSoloStoreWith(t testing.TB, shards int, factory protocol.Factory) *Store {
	t.Helper()
	s, err := StartStore(StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Shards:     shards,
		Factory:    factory,
		ObjType:    func(string) workload.Datatype { return workload.GSetType{} },
	})
	if err != nil {
		t.Fatalf("StartStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// keysOnShard generates n distinct keys that hash-route to the given
// shard under the store's mask, so test frames carry the same shard
// assignment a real sender would and Get finds the objects afterwards.
func keysOnShard(mask uint32, shard uint32, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if fnv32a(k)&mask == shard {
			keys = append(keys, k)
		}
	}
	return keys
}

// shardBatch builds one shard's per-object batch of small GSet deltas.
func shardBatch(shard uint32, keys ...string) protocol.ShardItem {
	oms := make([]protocol.ObjectMsg, 0, len(keys))
	for i, k := range keys {
		oms = append(oms, protocol.ObjectMsg{Key: k, Inner: gsetDelta(int(shard)*100+i, 2)})
	}
	return protocol.ShardItem{Shard: shard, Msg: protocol.BatchOf(oms)}
}

func encodeFrame(t testing.TB, m protocol.Msg) []byte {
	t.Helper()
	data, err := codec.EncodeMsg(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// TestDeliverLocksOncePerShard pins the single-pass path's lock
// discipline: one shard-lock acquisition per touched shard per frame,
// however many items the frame carries for that shard — the eager path
// took one per item.
func TestDeliverLocksOncePerShard(t *testing.T) {
	s := startSoloStore(t, 4)
	sh0 := keysOnShard(s.mask, 0, 2)
	sh1 := keysOnShard(s.mask, 1, 2)
	sh3 := keysOnShard(s.mask, 3, 3)
	frame := encodeFrame(t, protocol.NewShardedMsg([]protocol.ShardItem{
		shardBatch(0, sh0...),
		shardBatch(1, sh1[0]),
		shardBatch(1, sh1[1]), // same shard again: still one lock hold
		shardBatch(3, sh3...),
	}))
	if err := s.deliver("peer", frame); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	if got := s.deliverLocks.Load(); got != 3 {
		t.Fatalf("deliverLocks = %d after one frame touching 3 shards, want 3", got)
	}
	if err := s.deliver("peer", frame); err != nil {
		t.Fatalf("redeliver: %v", err)
	}
	if got := s.deliverLocks.Load(); got != 6 {
		t.Fatalf("deliverLocks = %d after two frames, want 6", got)
	}
	// Control frames take no shard locks on the delivery path.
	dig := encodeFrame(t, protocol.NewDigestMsg(make([]uint64, 4)))
	if err := s.deliver("peer", dig); err != nil {
		t.Fatalf("deliver digest: %v", err)
	}
	if got := s.deliverLocks.Load(); got != 6 {
		t.Fatalf("deliverLocks = %d after a digest frame, want 6", got)
	}
	// The frame's objects actually applied.
	if st := s.Get(sh0[0]); st == nil || st.IsBottom() {
		t.Fatalf("object %q missing after delivery", sh0[0])
	}
}

// TestDeliverDroppedItems pins the shard-skew observability satellite:
// items routed beyond the local shard count are counted in Stats, and
// in-range items on the same frame still apply.
func TestDeliverDroppedItems(t *testing.T) {
	s := startSoloStore(t, 4)
	keep := keysOnShard(s.mask, 2, 1)[0]
	frame := encodeFrame(t, protocol.NewShardedMsg([]protocol.ShardItem{
		shardBatch(2, keep),
		shardBatch(9, "skew1"),
		shardBatch(63, "skew2"),
	}))
	if err := s.deliver("peer", frame); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	if got := s.Stats().DroppedItems; got != 2 {
		t.Fatalf("DroppedItems = %d, want 2", got)
	}
	if st := s.Get(keep); st == nil || st.IsBottom() {
		t.Fatalf("in-range object did not apply")
	}
	if st := s.Get("skew1"); st != nil {
		t.Fatalf("out-of-range object applied: %v", st)
	}
}

// TestDeliverCorruptFrame: undecodable bytes error out (dropping the
// connection in the read loop) instead of being silently ignored.
func TestDeliverCorruptFrame(t *testing.T) {
	s := startSoloStore(t, 4)
	for _, frame := range [][]byte{
		{},
		{72, 2, 1},                   // sharded, 2 items, truncated
		{74, 255, 255, 255, 255, 15}, // hostile digest count
		{255, 1, 2, 3},               // unknown tag
	} {
		if err := s.deliver("peer", frame); err == nil {
			t.Fatalf("deliver accepted corrupt frame %v", frame)
		} else if errors.Is(err, codec.ErrNotSharded) {
			t.Fatalf("ErrNotSharded escaped deliver for %v", frame)
		}
	}
	// Well-formed non-store traffic is tolerated, as before.
	if err := s.deliver("peer", encodeFrame(t, gsetDelta(1, 2))); err != nil {
		t.Fatalf("deliver rejected a well-formed non-store frame: %v", err)
	}
}

// TestPackUnpackRoundTrip closes the wire loop: every frame the packer
// emits unpacks into exactly the units that went in, grouped by shard
// with per-shard order preserved — the receive-side mirror of
// TestPackFramesRoundTrip.
func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const shards = 64
	var v codec.FrameView
	for round := 0; round < 50; round++ {
		items := randomItems(rng)
		var digests []uint64
		if rng.Intn(2) == 0 {
			digests = make([]uint64, shards)
			for i := range digests {
				digests[i] = rng.Uint64()
			}
		}
		limit := 256 + rng.Intn(4096)
		res, err := packFrames(items, digests, limit, nil)
		if err != nil {
			t.Fatalf("pack: %v", err)
		}
		var got []unit
		for _, f := range res.frames {
			if err := codec.UnpackFrame(f.data, shards, &v); err != nil {
				t.Fatalf("unpack packed frame: %v", err)
			}
			if v.Dropped != 0 {
				t.Fatalf("packer emitted %d out-of-range items", v.Dropped)
			}
			// Flatten this frame's groups back into units; within a frame
			// the packer already emits shards in index order, so group
			// order is frame order.
			for _, g := range v.Groups() {
				for i := range g.Items {
					iv := &g.Items[i]
					got = append(got, unit{shard: g.Shard, key: string(iv.Key), enc: string(iv.Payload)})
				}
			}
		}
		// The packer preserves the input unit order on the wire; the
		// unpacker regroups each frame by shard. Compare as multisets
		// (mirroring checkPacked, which only does the exact-order check):
		// counts always honor the oversized drops, and with nothing
		// dropped the unit multisets must match exactly.
		want := unitsOf(t, items)
		if len(got)+res.oversized != len(want) {
			t.Fatalf("round %d: %d units in, %d out + %d oversized",
				round, len(want), len(got), res.oversized)
		}
		if res.oversized > 0 {
			continue
		}
		sortUnits(got)
		sortUnits(want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: unit %d = %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
}

// TestDeliverShardedErrorStillFlushesAndCounts is the regression test
// for the mid-frame decode-error path: deliverSharded used to return
// the moment an item failed to decode, before flushing the replies the
// already-applied shard groups had coalesced (discarding real acks the
// peer was owed) and before counting the frame's dropped items. An
// error must still flush and still count — only the failed group's
// remainder and the frame's piggybacked digests are abandoned.
func TestDeliverShardedErrorStillFlushesAndCounts(t *testing.T) {
	// A configured-but-unreachable peer: transmit enqueues onto its
	// pipeline (counting the frame) and the dial fails lazily later.
	s, err := StartStore(StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Peers:      map[string]string{"peer": "127.0.0.1:1"},
		Shards:     2,
		Factory:    protocol.NewDeltaAcked(true, true),
		ObjType:    func(string) workload.Datatype { return workload.GSetType{} },
	})
	if err != nil {
		t.Fatalf("StartStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	k0 := keysOnShard(s.mask, 0, 1)[0]
	k1 := keysOnShard(s.mask, 1, 1)[0]
	gs := crdt.NewGSet("a", "b")
	acked := protocol.NewAckedDeltaMsg(gs, []uint64{1})
	frame := encodeFrame(t, protocol.NewShardedMsg([]protocol.ShardItem{
		// Shard 0 applies and owes the sender an AckMsg reply.
		{Shard: 0, Msg: protocol.BatchOf([]protocol.ObjectMsg{{Key: k0, Inner: acked}})},
		shardBatch(1, k1),
		shardBatch(9, "skew"), // beyond the shard count: dropped at unpack
	}))
	var v codec.FrameView
	if err := codec.UnpackFrame(frame, len(s.shards), &v); err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if len(v.Groups()) != 2 || v.Dropped != 1 {
		t.Fatalf("unpacked %d groups, %d dropped; want 2 groups, 1 dropped",
			len(v.Groups()), v.Dropped)
	}
	// Corrupt the shard-1 item to an unknown tag after the skip walk
	// accepted it: Msg() now fails mid-frame, the condition the eager
	// return used to take.
	v.Groups()[1].Items[0].Payload[0] = 0xff
	if err := s.deliverSharded("peer", &v); err == nil {
		t.Fatal("mid-frame decode corruption must surface an error")
	}
	if st := s.Get(k0); st == nil || st.IsBottom() {
		t.Fatal("shard-0 group did not apply before the error")
	}
	stats := s.Stats()
	if stats.DroppedItems != 1 {
		t.Fatalf("DroppedItems = %d despite the error, want 1", stats.DroppedItems)
	}
	if stats.Frames == 0 {
		t.Fatal("shard-0's ack reply was not flushed after the error")
	}
}

// sortUnits orders units for multiset comparison.
func sortUnits(us []unit) {
	sort.Slice(us, func(i, j int) bool {
		if us[i].shard != us[j].shard {
			return us[i].shard < us[j].shard
		}
		if us[i].key != us[j].key {
			return us[i].key < us[j].key
		}
		return us[i].enc < us[j].enc
	})
}
