package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
)

// unit is the indivisible piece of a packed tick for comparison purposes:
// a non-batch shard message, or one object message of a batch (batches
// are the only messages the packer may split). key is empty for non-batch
// units; enc is the canonical encoding of the inner message as a store
// puts it on the wire — an AckedDeltaMsg as the plain δ-group, with the
// entry seqs it leaves behind in seqs (empty for everything else, and
// for everything decoded off a frame).
type unit struct {
	shard uint32
	key   string
	enc   string
	seqs  string
}

// onWire strips what never reaches the wire.
func (u unit) onWire() unit { u.seqs = ""; return u }

// unitsOf flattens shard items into comparison units.
func unitsOf(t testing.TB, items []protocol.ShardItem) []unit {
	t.Helper()
	var out []unit
	for _, it := range items {
		if bm, ok := it.Msg.(*protocol.BatchMsg); ok {
			for _, om := range bm.Items {
				inner, seqs := om.Inner, ""
				if a, ok := inner.(*protocol.AckedDeltaMsg); ok {
					inner, seqs = protocol.NewDeltaMsg(a.Delta), fmt.Sprint(a.Seqs)
				}
				enc, err := codec.EncodeMsg(inner)
				if err != nil {
					t.Fatalf("encode inner: %v", err)
				}
				out = append(out, unit{shard: it.Shard, key: om.Key, enc: string(enc), seqs: seqs})
			}
			continue
		}
		enc, err := codec.EncodeMsg(it.Msg)
		if err != nil {
			t.Fatalf("encode msg: %v", err)
		}
		out = append(out, unit{shard: it.Shard, enc: string(enc)})
	}
	return out
}

// decodeFrames decodes every packed frame (checking the size cap) and
// flattens the carried items back into units; it also returns any digest
// vector found and on which frame.
func decodeFrames(t testing.TB, frames []packedFrame, limit int) (units []unit, digests []uint64, digestFrames int) {
	t.Helper()
	for _, f := range decodeEach(t, frames, limit) {
		units = append(units, f.units...)
		if f.msg.Digests != nil {
			digestFrames++
			digests = f.msg.Digests
		}
	}
	return units, digests, digestFrames
}

// decodedFrame is one packed frame decoded: the message and its units.
type decodedFrame struct {
	msg   *protocol.ShardedMsg
	units []unit
}

// decodeEach is decodeFrames frame by frame.
func decodeEach(t testing.TB, frames []packedFrame, limit int) (out []decodedFrame) {
	t.Helper()
	for i, f := range frames {
		if len(f.data) > limit {
			t.Fatalf("frame %d is %d bytes, cap %d", i, len(f.data), limit)
		}
		m, n, err := codec.DecodeMsg(f.data)
		if err != nil {
			t.Fatalf("frame %d does not decode: %v", i, err)
		}
		if n != len(f.data) {
			t.Fatalf("frame %d: decoded %d of %d bytes", i, n, len(f.data))
		}
		sm, ok := m.(*protocol.ShardedMsg)
		if !ok {
			t.Fatalf("frame %d decoded to %T, want *ShardedMsg", i, m)
		}
		if got := sm.Digests != nil; got != f.digests {
			t.Fatalf("frame %d: digest presence %v, packer said %v", i, got, f.digests)
		}
		// Re-encoding the decoded frame must reproduce the packed bytes:
		// the packer writes the same canonical encoding EncodeMsg would.
		re, err := codec.EncodeMsg(sm)
		if err != nil {
			t.Fatalf("frame %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(re, f.data) {
			t.Fatalf("frame %d: packed bytes are not the canonical encoding", i)
		}
		// The accounting is not on the wire: the packer's own sums feed
		// Stats().Sent and must be what the frame's content accounts for.
		if f.cost != sm.Cost() {
			t.Fatalf("frame %d: packer accounted %+v, content says %+v", i, f.cost, sm.Cost())
		}
		out = append(out, decodedFrame{msg: sm, units: unitsOf(t, sm.Items)})
	}
	return out
}

// gsetDelta builds a DeltaMsg over a GSet with n elements derived from
// seed — its encoded size grows with n, giving the tests pieces of very
// different sizes.
func gsetDelta(seed, n int) protocol.Msg {
	els := make([]string, n)
	for i := range els {
		els[i] = fmt.Sprintf("el-%d-%d", seed, i)
	}
	s := crdt.NewGSet(els...)
	return protocol.NewDeltaMsg(s)
}

// ackedItems is randomItems as an acked store's engines emit it: about
// half of the δ-groups in batches are AckedDeltaMsgs with one to three
// entry seqs.
func ackedItems(rng *rand.Rand) []protocol.ShardItem {
	items := randomItems(rng)
	seq := uint64(1)
	for _, it := range items {
		bm, ok := it.Msg.(*protocol.BatchMsg)
		if !ok {
			continue
		}
		for i, om := range bm.Items {
			if rng.Intn(2) == 0 {
				continue
			}
			seqs := make([]uint64, 1+rng.Intn(3))
			for j := range seqs {
				seqs[j] = seq
				seq++
			}
			bm.Items[i].Inner = protocol.NewAckedDeltaMsg(om.Inner.(*protocol.DeltaMsg).Delta, seqs)
		}
	}
	return items
}

// randomItems builds a mixed tick: plain delta messages and multi-object
// batches across shards, sizes spanning roughly two orders of magnitude.
func randomItems(rng *rand.Rand) []protocol.ShardItem {
	n := 1 + rng.Intn(12)
	items := make([]protocol.ShardItem, 0, n)
	for i := 0; i < n; i++ {
		shard := uint32(rng.Intn(64))
		if rng.Intn(2) == 0 {
			items = append(items, protocol.ShardItem{Shard: shard, Msg: gsetDelta(i, 1+rng.Intn(40))})
			continue
		}
		k := 1 + rng.Intn(10)
		oms := make([]protocol.ObjectMsg, 0, k)
		for j := 0; j < k; j++ {
			oms = append(oms, protocol.ObjectMsg{
				Key:   fmt.Sprintf("obj-%d-%d", i, j),
				Inner: gsetDelta(i*100+j, 1+rng.Intn(20)),
			})
		}
		items = append(items, protocol.ShardItem{Shard: shard, Msg: protocol.BatchOf(oms)})
	}
	return items
}

// checkPacked runs the packer over items and verifies the packing
// invariants: every frame within the cap and canonically encoded, and the
// decoded units exactly the input units minus the counted oversized drops
// (exactly equal, in order, when nothing was dropped).
func checkPacked(t testing.TB, items []protocol.ShardItem, digests []uint64, limit int) packResult {
	t.Helper()
	return checkPackedOn(t, items, digests, limit, nil)
}

// checkPackedOn is checkPacked toward a link, nil for none.
func checkPackedOn(t testing.TB, items []protocol.ShardItem, digests []uint64, limit int, lk *link) packResult {
	t.Helper()
	res, err := packFrames(items, digests, limit, lk)
	if err != nil {
		t.Fatalf("packFrames: %v", err)
	}
	got, gotVec, digestFrames := decodeFrames(t, res.frames, limit)
	want := unitsOf(t, items)
	// One encode per item, plus at most one per object of a batch that
	// had to split: nothing is encoded twice to learn its size.
	if res.encodes < len(items) || res.encodes > len(items)+len(want) {
		t.Fatalf("%d encodes for %d items of %d units", res.encodes, len(items), len(want))
	}
	if len(got)+res.oversized != len(want) {
		t.Fatalf("%d units in, %d out + %d oversized", len(want), len(got), res.oversized)
	}
	if res.oversized == 0 {
		for i := range want {
			if got[i] != want[i].onWire() {
				t.Fatalf("unit %d changed: %+v vs %+v", i, got[i], want[i])
			}
		}
	}
	if digestFrames > 1 {
		t.Fatalf("digest vector rode %d frames, want at most 1", digestFrames)
	}
	if res.digestsAttached != (digestFrames == 1) {
		t.Fatalf("digestsAttached = %v but %d digest frames decoded", res.digestsAttached, digestFrames)
	}
	if res.digestsAttached {
		if len(gotVec) != len(digests) {
			t.Fatalf("digest vector arrived with %d words, want %d", len(gotVec), len(digests))
		}
		for i := range digests {
			if gotVec[i] != digests[i] {
				t.Fatalf("digest word %d changed", i)
			}
		}
	}
	return res
}

// TestPackFramesRoundTrip is the packer's property test: across random
// mixed ticks and frame caps, packed frames always decode to exactly the
// input batch (order preserved, batches split only at object boundaries)
// with every frame within the cap.
func TestPackFramesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		items := randomItems(rng)
		limit := 128 + rng.Intn(8192)
		var vec []uint64
		if rng.Intn(2) == 0 {
			vec = make([]uint64, 1+rng.Intn(64))
			for i := range vec {
				vec[i] = rng.Uint64()
			}
		}
		checkPacked(t, items, vec, limit)
	}
}

// checkNumbered verifies what packing toward a fresh link that owes ack
// left behind: the frames that carry acked δ-groups, and only they, are
// numbered 1, 2, … in order; each number's record is exactly the entry
// seqs of the δ-groups in that frame; the acknowledgement rode the first
// frame and no other, or is owed again when there was no frame.
func checkNumbered(t testing.TB, lk *link, ack protocol.FrameAck, items []protocol.ShardItem, res packResult, limit int) {
	t.Helper()
	want := unitsOf(t, items)
	frames := decodeEach(t, res.frames, limit)
	if len(frames) == 0 {
		if !lk.owed.Load() {
			t.Fatal("no frame left and the acknowledgement is not owed again")
		}
		return
	}
	if lk.owed.Load() {
		t.Fatal("acknowledgement still owed after a frame took it")
	}
	next, pos := uint64(1), 0
	for i, f := range frames {
		if wantAck := i == 0; (f.msg.Link.Ack.Inc != 0) != wantAck {
			t.Fatalf("frame %d: acknowledgement present = %v", i, !wantAck)
		}
		if i == 0 && !reflect.DeepEqual(f.msg.Link.Ack, ack) {
			t.Fatalf("first frame acknowledges %+v, want %+v", f.msg.Link.Ack, ack)
		}
		if res.oversized > 0 {
			continue // a dropped unit breaks the positional match below
		}
		var rec []ackItem
		for _, u := range want[pos : pos+len(f.units)] {
			if u.seqs != "" {
				rec = append(rec, ackItem{shard: u.shard, key: u.key})
			}
		}
		pos += len(f.units)
		fs := f.msg.Link.Seq
		if len(rec) == 0 {
			if fs.Seq != 0 {
				t.Fatalf("frame %d carries no acked δ-group and is numbered %d", i, fs.Seq)
			}
			continue
		}
		// The sender's incarnation is the connection's hello's, not the frame's.
		if fs.Inc != 0 || fs.Seq != next || fs.Back != next-1 {
			t.Fatalf("frame %d numbered %+v, want no incarnation, number %d, back %d", i, fs, next, next-1)
		}
		got := lk.rec(next).items
		if len(got) != len(rec) {
			t.Fatalf("frame %d: record of %d δ-groups, want %d", i, len(got), len(rec))
		}
		acked := 0
		for _, u := range want[pos-len(f.units) : pos] {
			if u.seqs == "" {
				continue
			}
			if g := got[acked]; g.shard != u.shard || g.key != u.key || fmt.Sprint(g.seqs) != u.seqs {
				t.Fatalf("frame %d record %d = %+v, want %+v", i, acked, g, u)
			}
			acked++
		}
		next++
	}
	if res.oversized == 0 && (lk.sent != next-1 || lk.open != int(next-1)) {
		t.Fatalf("link sent %d, %d open, want %d", lk.sent, lk.open, next-1)
	}
}

// TestPackFramesNumbersAckedFrames is the round-trip property over what an
// acked store packs: frames flatten back to the input with every
// AckedDeltaMsg a plain δ-group, and the link's records account for every
// entry seq, frame by frame, split batches included.
func TestPackFramesNumbersAckedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		items := ackedItems(rng)
		limit := 96 + rng.Intn(4096)
		var vec []uint64
		if rng.Intn(2) == 0 {
			vec = []uint64{rng.Uint64(), rng.Uint64()}
		}
		lk, ack := owingLink()
		res := checkPackedOn(t, items, vec, limit, lk)
		checkNumbered(t, lk, ack, items, res, limit)
	}
}

// owingLink returns a fresh link that has received frames 1, 2 and 4 of
// its neighbor's incarnation 9 (as the connection's hello named it), and
// the acknowledgement it owes for them.
func owingLink() (*link, protocol.FrameAck) {
	lk := newLink(7)
	for _, seq := range []uint64{1, 2, 4} {
		lk.receive(protocol.FrameSeq{Inc: 9, Seq: seq, Back: seq - 1}, 0)
	}
	return lk, protocol.FrameAck{Inc: 9, Cum: 2, Ranges: []protocol.SeqRange{{Lo: 4, Hi: 4}}}
}

// TestPackFramesHugeLimitIsOneFrame pins the common case: when everything
// fits, the tick is exactly one frame and the digest vector rides it.
func TestPackFramesHugeLimitIsOneFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	items := randomItems(rng)
	res := checkPacked(t, items, []uint64{1, 2, 3}, maxFrameBytes)
	if len(res.frames) != 1 {
		t.Fatalf("got %d frames, want 1", len(res.frames))
	}
	if !res.digestsAttached {
		t.Fatal("digest vector did not ride the single frame")
	}
	if res.encodes != len(items) {
		t.Fatalf("encodes = %d, want one per item (%d)", res.encodes, len(items))
	}
}

// TestPackEncodesEachItemOnce pins the single-pass invariant the packer
// exists for: splitting a batch across many frames costs one encoding
// call per object, not one per object per split level. The predecessor's
// recursive halving re-encoded the remaining batch at every level —
// O(B log k) — and this counter is what keeps that from coming back.
func TestPackEncodesEachItemOnce(t *testing.T) {
	const objects = 100
	oms := make([]protocol.ObjectMsg, 0, objects)
	for j := 0; j < objects; j++ {
		oms = append(oms, protocol.ObjectMsg{
			Key:   fmt.Sprintf("obj-%03d", j),
			Inner: gsetDelta(j, 4),
		})
	}
	items := []protocol.ShardItem{{Shard: 3, Msg: protocol.BatchOf(oms)}}
	res := checkPacked(t, items, nil, 384)
	if len(res.frames) < 10 {
		t.Fatalf("cap did not force a split: %d frames", len(res.frames))
	}
	// One encode for the whole batch (discovering it cannot fit), then
	// exactly one per object message.
	if want := 1 + objects; res.encodes != want {
		t.Fatalf("encodes = %d, want %d: the packer re-encoded on split", res.encodes, want)
	}
	if res.oversized != 0 {
		t.Fatalf("%d oversized drops, want 0", res.oversized)
	}
}

// TestPackDropsIrreducibleOversized pins the only unpackable case: a
// single message that alone exceeds the cap is dropped and counted, and
// everything around it still ships.
func TestPackDropsIrreducibleOversized(t *testing.T) {
	items := []protocol.ShardItem{
		{Shard: 0, Msg: gsetDelta(1, 1)},
		{Shard: 1, Msg: gsetDelta(2, 500)}, // far beyond the cap
		{Shard: 2, Msg: gsetDelta(3, 1)},
	}
	res, err := packFrames(items, nil, 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.oversized != 1 {
		t.Fatalf("oversized = %d, want 1", res.oversized)
	}
	units, _, _ := decodeFrames(t, res.frames, 128)
	if len(units) != 2 {
		t.Fatalf("%d units survived, want the 2 small ones", len(units))
	}
}

// FuzzPackFrames drives the packer over fuzz-chosen tick shapes and caps:
// whatever the mix, every emitted frame must stay within the cap, decode
// canonically, and account for every input unit as delivered or counted
// oversized.
func FuzzPackFrames(f *testing.F) {
	f.Add(int64(1), uint16(256), false)
	f.Add(int64(2), uint16(64), true)
	f.Add(int64(3), uint16(8192), true)
	f.Add(int64(4), uint16(16), false)
	f.Fuzz(func(t *testing.T, seed int64, cap16 uint16, withDigests bool) {
		rng := rand.New(rand.NewSource(seed))
		items := randomItems(rng)
		var vec []uint64
		if withDigests {
			vec = make([]uint64, 1+rng.Intn(32))
			for i := range vec {
				vec[i] = rng.Uint64()
			}
		}
		// Floor of 16: caps below the smallest possible frame header are
		// legal but degenerate (everything oversized), which the
		// count-accounting check still covers.
		checkPacked(t, items, vec, 16+int(cap16))
		// The same tick as an acked store's, toward a link that owes an
		// acknowledgement: numbered frames, records, and the ack's ride.
		acked := ackedItems(rand.New(rand.NewSource(seed)))
		lk, ack := owingLink()
		res := checkPackedOn(t, acked, vec, 16+int(cap16), lk)
		checkNumbered(t, lk, ack, acked, res, 16+int(cap16))
	})
}

// benchItems builds a heavy tick: 64 shards, each a batch of 32 small
// per-key deltas — 2048 object messages, the shape of a busy store that
// overflowed its frame cap.
func benchItems() []protocol.ShardItem {
	items := make([]protocol.ShardItem, 0, 64)
	for sh := 0; sh < 64; sh++ {
		oms := make([]protocol.ObjectMsg, 0, 32)
		for j := 0; j < 32; j++ {
			oms = append(oms, protocol.ObjectMsg{
				Key:   fmt.Sprintf("obj:%02d-%02d", sh, j),
				Inner: gsetDelta(sh*32+j, 3),
			})
		}
		items = append(items, protocol.ShardItem{Shard: uint32(sh), Msg: protocol.BatchOf(oms)})
	}
	return items
}

// BenchmarkPack pins the packer's one-encode-per-item invariant under the
// benchmark harness.
func BenchmarkPack(b *testing.B) {
	items := benchItems()
	units := 0
	for _, it := range items {
		units += len(it.Msg.(*protocol.BatchMsg).Items)
	}
	// Low enough that every shard's ~1.5 KiB batch must split across
	// frames.
	const limit = 1024
	b.Run("greedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := packFrames(items, nil, limit, nil)
			if err != nil {
				b.Fatal(err)
			}
			// The invariant, enforced every iteration: every batch had to
			// split (one probe encode per item), then one encode per
			// object message — never one per object per split level.
			if res.encodes != len(items)+units {
				b.Fatalf("encodes = %d, want %d", res.encodes, len(items)+units)
			}
			if res.oversized != 0 {
				b.Fatalf("oversized = %d", res.oversized)
			}
		}
	})
}
