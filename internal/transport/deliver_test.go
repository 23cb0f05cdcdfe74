package transport

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// startSoloStore builds one peerless store for direct inbound-path tests:
// frames are handed to s.deliver by hand, replies to the unknown sender
// are dropped by the peer net exactly as they would be for a vanished
// neighbor.
func startSoloStore(t testing.TB, shards int) *Store {
	return startSoloStoreWith(t, shards, EngineDelta)
}

// startSoloStoreWith is startSoloStore with a caller-chosen engine.
func startSoloStoreWith(t testing.TB, shards int, engine Engine) *Store {
	t.Helper()
	s, err := StartStore(StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Shards:     shards,
		Engine:     engine,
		ObjType:    func(string) workload.Datatype { return workload.GSetType{} },
	})
	if err != nil {
		t.Fatalf("StartStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// keysOnShard generates n distinct keys that route to the given shard of
// shards (protocol.ShardOf), so test frames carry the same shard
// assignment a real sender would and Get finds the objects afterwards.
func keysOnShard(shards int, shard uint32, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if protocol.ShardOf(k, shards) == shard {
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

// testPeerInc is the incarnation of the sender of every frame handed to a
// store by deliver: what the hello of the connection it came on named.
const testPeerInc = 9

// deliver hands s one frame from from, as if it arrived on a connection
// whose hello named testPeerInc.
func (s *Store) deliver(from string, frame []byte) error {
	inc := uint32(testPeerInc)
	return s.receive(from, &inc, frame)
}

// locked runs f under the core's lock, as the store's own calls into the
// core do: a test reads a running store's links and counters in it.
func (c *core) locked(f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f()
}

// deliverLocked returns how many shard write locks s's delivery path has
// taken.
func (s *Store) deliverLocked() (n uint64) {
	s.locked(func() { n = s.deliverLocks })
	return n
}

// encodeFrame encodes a standalone message: a hello, digest or tree frame.
func encodeFrame(t testing.TB, m protocol.Msg) []byte {
	t.Helper()
	data, err := codec.EncodeMsg(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// packFrame is the one frame packFrames makes of items and digests under
// no cap — the keyed items of their batches as one run in key order, then
// the other items bare — written under link, which a test names itself
// instead of taking a number from a link. Without items it is the header
// alone.
func packFrame(t testing.TB, link protocol.LinkHeader, digests []uint64, items ...protocol.ShardItem) []byte {
	t.Helper()
	res, err := packFrames(items, digests, math.MaxInt32, packShards, nil, 0, 0)
	if err != nil || len(res.frames) > 1 {
		t.Fatalf("packFrames: %d frames: %v", len(res.frames), err)
	}
	keyed, bare := len(protocol.KeyedRun(items)), 0
	for _, it := range items {
		if _, ok := it.Msg.(*protocol.BatchMsg); !ok {
			bare++
		}
	}
	var body []byte
	if len(res.frames) == 1 {
		if !res.digestsAttached {
			digests = nil
		}
		body = res.frames[0].data[codec.ShardedHeaderSize(protocol.LinkHeader{}, digests, keyed, bare):]
	}
	return append(codec.AppendShardedHeader(nil, link, digests, keyed, bare), body...)
}

// dataFrame is packFrame with neither a link header nor a digest vector.
func dataFrame(t testing.TB, items ...protocol.ShardItem) []byte {
	t.Helper()
	return packFrame(t, protocol.LinkHeader{}, nil, items...)
}

// frameContent is what a data frame holds: its link header, its digest
// vector, its keyed run in key order and its bare items in frame order.
type frameContent struct {
	link    protocol.LinkHeader
	digests []uint64
	keyed   []protocol.ObjectMsg
	bare    []protocol.ShardItem
}

// readShards is the shard count frameOf unpacks for: past every shard
// index a test's bare items name.
const readShards = 256

// frameOf unpacks data, a data frame, and returns what it holds, having
// checked that it is the one spelling of that content: packFrame writes
// exactly data for it.
func frameOf(t testing.TB, data []byte) frameContent {
	t.Helper()
	var v codec.FrameView
	if err := codec.UnpackFrame(data, readShards, &v); err != nil {
		t.Fatalf("frame does not unpack: %v", err)
	}
	if v.Dropped != 0 {
		t.Fatalf("frame names a shard past %d", readShards)
	}
	fc := frameContent{link: v.Link, digests: slices.Clone(v.Digests)}
	var bare []codec.ItemView
	for _, g := range v.Groups() {
		for _, iv := range g.Items {
			m, _ := iv.Msg()
			if iv.Key == nil {
				bare = append(bare, iv)
				continue
			}
			fc.keyed = append(fc.keyed, protocol.ObjectMsg{Key: string(iv.Key), Inner: m})
		}
	}
	slices.SortFunc(fc.keyed, func(a, b protocol.ObjectMsg) int { return strings.Compare(a.Key, b.Key) })
	// A payload aliases the frame: how much of data's capacity it leaves
	// says where it starts.
	slices.SortFunc(bare, func(a, b codec.ItemView) int { return cmp.Compare(cap(b.Payload), cap(a.Payload)) })
	for _, iv := range bare {
		m, _ := iv.Msg()
		fc.bare = append(fc.bare, protocol.ShardItem{Shard: iv.Shard, Msg: m})
	}
	if len(fc.digests) == 0 {
		fc.digests = nil
	}
	items := slices.Clone(fc.bare)
	if len(fc.keyed) > 0 {
		items = append(items, protocol.ShardItem{Msg: protocol.BatchOf(fc.keyed)})
	}
	if again := packFrame(t, fc.link, fc.digests, items...); !bytes.Equal(again, data) {
		t.Fatalf("frame %x re-packs as %x", data, again)
	}
	return fc
}

// cost is the frame's accounting, as the packer sums it: one message, the
// header's metadata, and each item's share.
func (fc frameContent) cost() metrics.Transmission {
	c := metrics.Transmission{Messages: 1, MetadataBytes: 8*len(fc.digests) + fc.link.MetadataBytes()}
	for _, om := range fc.keyed {
		c.Add(protocol.KeyedCost(om))
	}
	for _, it := range fc.bare {
		c.Add(protocol.BareCost(it))
	}
	return c
}

// TestDeliverLocksOncePerShard pins the single-pass path's lock
// discipline: one shard-lock acquisition per touched shard per frame,
// however many items the frame carries for that shard — the eager path
// took one per item.
func TestDeliverLocksOncePerShard(t *testing.T) {
	s := startSoloStore(t, 4)
	sh0 := keysOnShard(len(s.shards), 0, 2)
	sh1 := keysOnShard(len(s.shards), 1, 2)
	sh3 := keysOnShard(len(s.shards), 3, 3)
	frame := dataFrame(t,
		shardBatch(0, sh0...),
		shardBatch(1, sh1[0]),
		shardBatch(1, sh1[1]), // same shard again: still one lock hold
		shardBatch(3, sh3...),
	)
	// The frame's run is in key order, which interleaves the shards: the
	// unpacker regroups it.
	if slices.IsSortedFunc(frameOf(t, frame).keyed, func(a, b protocol.ObjectMsg) int {
		return cmp.Compare(protocol.ShardOf(a.Key, 4), protocol.ShardOf(b.Key, 4))
	}) {
		t.Fatal("the frame's keys arrive in shard order; the test wants them interleaved")
	}
	if err := s.deliver("peer", frame); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	if got := s.deliverLocked(); got != 3 {
		t.Fatalf("deliverLocks = %d after one frame touching 3 shards, want 3", got)
	}
	if err := s.deliver("peer", frame); err != nil {
		t.Fatalf("redeliver: %v", err)
	}
	if got := s.deliverLocked(); got != 6 {
		t.Fatalf("deliverLocks = %d after two frames, want 6", got)
	}
	// Control frames take no shard locks on the delivery path.
	dig := encodeFrame(t, protocol.NewDigestMsg(make([]uint64, 4)))
	if err := s.deliver("peer", dig); err != nil {
		t.Fatalf("deliver digest: %v", err)
	}
	if got := s.deliverLocked(); got != 6 {
		t.Fatalf("deliverLocks = %d after a digest frame, want 6", got)
	}
	// The frame's objects actually applied.
	if st := s.Get(sh0[0]); st == nil || st.IsBottom() {
		t.Fatalf("object %q missing after delivery", sh0[0])
	}
}

// TestDeliverDroppedItems pins what shard skew can still drop: bare items
// that name a shard beyond the local shard count are counted in Stats, and
// the frame's other items still apply — keyed ones included whatever shard
// the sender filed them under, since the receiver routes them by key.
func TestDeliverDroppedItems(t *testing.T) {
	s := startSoloStore(t, 4)
	keep := keysOnShard(len(s.shards), 2, 1)[0]
	closeOn := func(shard uint32) protocol.ShardItem {
		return protocol.ShardItem{Shard: shard, Msg: protocol.NewTreeMsg(shard, protocol.TreeDepth, []uint32{5}, nil)}
	}
	frame := dataFrame(t,
		shardBatch(2, keep),
		shardBatch(9, "routed"),
		closeOn(9),
		closeOn(63),
	)
	if err := s.deliver("peer", frame); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	if got := s.Stats().DroppedItems; got != 2 {
		t.Fatalf("DroppedItems = %d, want 2", got)
	}
	for _, k := range []string{keep, "routed"} {
		if st := s.Get(k); st == nil || st.IsBottom() {
			t.Fatalf("object %q did not apply", k)
		}
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
		append(encodeFrame(t, protocol.NewDigestMsg(make([]uint64, 4))), 0), // a byte after the message
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
		res, err := packFrames(items, digests, limit, shards, nil, 0, 0)
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
			for _, g := range v.Groups() {
				for i := range g.Items {
					iv := &g.Items[i]
					m, _ := iv.Msg()
					got = append(got, unit{shard: g.Shard, keyed: iv.Key != nil, key: string(iv.Key), enc: string(encodeFrame(t, m))})
				}
			}
		}
		// The unpacker regroups each frame by shard, a keyed item under
		// the shard its key routes to. Compare as multisets (mirroring
		// checkPacked, which only does the exact-order check): counts always
		// honor the oversized drops, and with nothing dropped the unit
		// multisets must match exactly.
		want := unitsOf(t, items)
		for i := range want {
			if want[i].keyed {
				want[i].shard = protocol.ShardOf(want[i].key, shards)
			}
		}
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

// corruptLastItem returns copies of a frame whose run ends in a GSet
// δ-group under key, each with one byte of that item changed so that the
// item no longer decodes: the ways a frame can be bad past its first shard
// group.
func corruptLastItem(t testing.TB, frame []byte, key string) map[string][]byte {
	t.Helper()
	// The item ends the run, which only the bare items follow: its key,
	// then the δ-group as its state alone — state tag (a GSet), element
	// count, elements.
	fc := frameOf(t, frame)
	last := fc.keyed[len(fc.keyed)-1]
	at := len(frame) - len(codec.Encode(last.Inner.(*protocol.DeltaMsg).Delta))
	for _, it := range fc.bare {
		bare, _ := codec.AppendShardItem(nil, it)
		at -= len(bare)
	}
	if last.Key != key || frame[at] != 7 {
		t.Fatalf("no δ-group of a GSet under key %q at the end of the frame", key)
	}
	out := make(map[string][]byte)
	for name, edit := range map[string]func(item []byte){
		"unknown state tag":   func(item []byte) { item[0] = 0xee },
		"truncated set":       func(item []byte) { item[1]++ },    // one element more than there are bytes for
		"retired message tag": func(item []byte) { item[0] = 64 }, // a StateMsg, whose body was a state
		"a DeltaMsg's tag":    func(item []byte) { item[0] = 65 }, // which a keyed item no longer spells
	} {
		bad := bytes.Clone(frame)
		edit(bad[at:])
		out[name] = bad
	}
	return out
}

// storeEngines are the two engines a store runs.
var storeEngines = map[string]Engine{
	"delta": EngineDelta,
	"acked": EngineAcked,
}

// startPeeredStore builds a store with one configured but unreachable
// peer: a frame sent to it is enqueued on its pipeline, and counted, and
// the dial fails lazily later.
func startPeeredStore(t testing.TB, engine Engine) *Store {
	t.Helper()
	s, err := StartStore(StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Peers:      map[string]string{"peer": "127.0.0.1:1"},
		Shards:     2,
		Engine:     engine,
		ObjType:    func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery:  time.Hour,
	})
	if err != nil {
		t.Fatalf("StartStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestDeliverShardedErrorStillFlushesAndCounts: a frame is applied whole
// or not at all. It used to hold only while two walkers agreed on what an
// item was — this test patched an unpacked view to make them disagree, and
// pinned what the half-applied frame still flushed and counted. Now the
// corrupt byte is in the encoded frame, in the last shard's item, and the
// entry point is the read loop's: deliver returns an error (the connection
// closes), no key of the first shard was applied, nothing was counted or
// sent; the same frame uncorrupted then applies and counts its drop.
func TestDeliverShardedErrorStillFlushesAndCounts(t *testing.T) {
	for engine, e := range storeEngines {
		s := startPeeredStore(t, e)
		k0, k1 := ascendingOnShards(len(s.shards), 0, 1)
		frame := dataFrame(t,
			shardBatch(0, k0),
			// Beyond the shard count: dropped at unpack.
			protocol.ShardItem{Shard: 9, Msg: protocol.NewTreeMsg(9, protocol.TreeDepth, []uint32{5}, nil)},
			shardBatch(1, k1),
		)
		before := s.Stats()
		for name, bad := range corruptLastItem(t, frame, k1) {
			if err := s.deliver("peer", bad); err == nil {
				t.Fatalf("%s, %s: deliver accepted the frame", engine, name)
			}
			if s.Get(k0) != nil || s.Get(k1) != nil {
				t.Fatalf("%s, %s: part of a refused frame was applied", engine, name)
			}
			if st := s.Stats(); st.DroppedItems != before.DroppedItems || st.Frames != before.Frames || st.AckFrames != before.AckFrames {
				t.Fatalf("%s, %s: a refused frame counted %d dropped items, %d frames, %d acknowledgement frames",
					engine, name, st.DroppedItems, st.Frames-before.Frames, st.AckFrames-before.AckFrames)
			}
		}
		if err := s.deliver("peer", frame); err != nil {
			t.Fatalf("%s: the frame as it was encoded: %v", engine, err)
		}
		if s.Get(k0) == nil || s.Get(k1) == nil || s.Stats().DroppedItems != 1 {
			t.Fatalf("%s: the whole frame left %v and %v, %d dropped", engine, s.Get(k0), s.Get(k1), s.Stats().DroppedItems)
		}
	}
}

// TestDeliverRetiredAndLegacyItems: nothing a peer sends reaches a panic
// on the way out. A keyed δ-group that spells out its entry seqs — the
// form older than the link header, which no packer writes — is refused as
// an unknown tag, and its frame applies nothing and is answered with
// nothing; so is an item with a retired tag, bare or keyed in the run.
func TestDeliverRetiredAndLegacyItems(t *testing.T) {
	for engine, e := range storeEngines {
		s := startPeeredStore(t, e)
		k0 := keysOnShard(len(s.shards), 0, 2)
		legacy := append(codec.AppendShardedHeader(nil, protocol.LinkHeader{}, nil, 1, 0), byte(len(k0[0])))
		legacy = append(append(legacy, k0[0]...), encodeFrame(t, protocol.NewAckedDeltaMsg(crdt.NewGSet("a", "b"), []uint64{1, 2}))...)
		before := s.Stats().Frames
		if err := s.deliver("peer", legacy); !errors.Is(err, codec.ErrUnknownTag) {
			t.Fatalf("%s: a δ-group with its seqs spelled out: error %v, want ErrUnknownTag", engine, err)
		}
		if st := s.Get(k0[0]); st != nil {
			t.Fatalf("%s: the refused δ-group left %v", engine, st)
		}
		if got := s.Stats().Frames; got != before {
			t.Fatalf("%s: the δ-group was answered with %d frames", engine, got-before)
		}
		// The item with a retired tag is bare, or keyed under hi, which
		// the run puts after lo.
		lo, hi := k0[1], aboveOnShard(len(s.shards), 1, k0[1])
		good, err := codec.AppendLinkObjectMsg(nil, nil, protocol.ObjectMsg{Key: lo, Inner: gsetDelta(0, 2)}, new(codec.Names))
		if err != nil {
			t.Fatal(err)
		}
		for name, body := range map[string][]byte{
			"state":     {64, 7, 1, 1, 'a'},
			"ack":       {67, 1, 1},
			"sb-digest": {68, 0, 0},
			"sb-deltas": {69, 0},
			"ops":       {70, 0},
		} {
			bare := append(codec.AppendShardedHeader(nil, protocol.LinkHeader{}, nil, 1, 1), good...)
			bare = append(append(bare, 1), body...)
			keyed := append(codec.AppendShardedHeader(nil, protocol.LinkHeader{}, nil, 2, 0), good...)
			keyed = append(keyed, keyAfter(t, lo, hi)...)
			keyed = append(keyed, body...)
			for form, frame := range map[string][]byte{"bare": bare, "in the run": keyed} {
				if err := s.deliver("peer", frame); !errors.Is(err, codec.ErrUnknownTag) {
					t.Fatalf("%s, %s %s: deliver error %v, want ErrUnknownTag", engine, name, form, err)
				}
				if s.Get(lo) != nil || s.Get(hi) != nil {
					t.Fatalf("%s, %s %s: part of a refused frame was applied", engine, name, form)
				}
			}
		}
	}
}

// ascendingOnShards returns a key on shard a of shards and one on shard b
// above it: the first and the last of a run.
func ascendingOnShards(shards int, a, b uint32) (lo, hi string) {
	lo = keysOnShard(shards, a, 1)[0]
	return lo, aboveOnShard(shards, b, lo)
}

// aboveOnShard returns a key on the given shard of shards above lo.
func aboveOnShard(shards int, shard uint32, lo string) string {
	for _, k := range keysOnShard(shards, shard, 50) {
		if k > lo {
			return k
		}
	}
	panic("no key above " + lo)
}

// keyAfter returns key as a run spells it after prev: the shared length,
// then the rest, ready for a message to follow.
func keyAfter(t testing.TB, prev, key string) []byte {
	t.Helper()
	item, err := codec.AppendLinkObjectMsg(nil, &prev, protocol.ObjectMsg{Key: key, Inner: gsetDelta(0, 2)}, new(codec.Names))
	if err != nil {
		t.Fatal(err)
	}
	return item[:len(item)-len(codec.Encode(gsetDelta(0, 2).(*protocol.DeltaMsg).Delta))]
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
