package codec_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/protocol"
)

// flatItem is the comparison form of one unpacked item: shard, key (empty
// for keyless items), and the inner message's canonical encoding.
type flatItem struct {
	shard uint32
	key   string
	enc   string
}

// flattenEager expands a decoded ShardedMsg the way UnpackFrame does: the
// keyed run, one entry per item under the shard its key routes to, then
// the bare items, one keyless entry each, those that name a shard beyond
// the shard count dropped (and counted).
func flattenEager(t testing.TB, sm *protocol.ShardedMsg, shards int) (kept []flatItem, dropped int) {
	t.Helper()
	for _, om := range sm.Keyed {
		enc, err := codec.EncodeMsg(om.Inner)
		if err != nil {
			t.Fatalf("encode inner: %v", err)
		}
		kept = append(kept, flatItem{shard: protocol.ShardOf(om.Key, shards), key: om.Key, enc: string(enc)})
	}
	for _, it := range sm.Items {
		if it.Shard >= uint32(shards) {
			dropped++
			continue
		}
		enc, err := codec.EncodeMsg(it.Msg)
		if err != nil {
			t.Fatalf("encode msg: %v", err)
		}
		kept = append(kept, flatItem{shard: it.Shard, enc: string(enc)})
	}
	return kept, dropped
}

// shardsOf returns how many distinct shards among shards the keys route to,
// with the bare items' shards given.
func shardsOf(shards int, keys []string, bare ...uint32) int {
	seen := make(map[uint32]bool)
	for _, k := range keys {
		seen[protocol.ShardOf(k, shards)] = true
	}
	for _, s := range bare {
		seen[s] = true
	}
	return len(seen)
}

// flattenView lowers a FrameView's groups into comparison items, checking
// the grouping invariants on the way: every group's items carry its shard,
// no shard appears in two groups, and each view holds its payload's
// message.
func flattenView(t testing.TB, v *codec.FrameView) []flatItem {
	t.Helper()
	var out []flatItem
	seen := make(map[uint32]bool)
	for _, g := range v.Groups() {
		if seen[g.Shard] {
			t.Fatalf("shard %d appears in two groups", g.Shard)
		}
		seen[g.Shard] = true
		for i := range g.Items {
			iv := &g.Items[i]
			if iv.Shard != g.Shard {
				t.Fatalf("item shard %d inside group %d", iv.Shard, g.Shard)
			}
			m, err := iv.Msg()
			if err != nil || m == nil {
				t.Fatalf("unpacked item holds message %v, error %v", m, err)
			}
			// Compare re-encodings, not raw payload bytes: the decoders
			// tolerate non-minimal uvarints, so an accepted hostile payload
			// may re-encode shorter than the wire form.
			enc, err := codec.EncodeMsg(m)
			if err != nil {
				t.Fatalf("re-encode decoded item: %v", err)
			}
			out = append(out, flatItem{shard: g.Shard, key: string(iv.Key), enc: string(enc)})
		}
	}
	return out
}

// checkUnpacked verifies that unpacking data matches the eager decode of
// the same bytes, modulo the stable shard grouping.
func checkUnpacked(t testing.TB, data []byte, shards int, v *codec.FrameView) {
	t.Helper()
	m, _, err := codec.DecodeMsg(data)
	if err != nil {
		t.Fatalf("eager decode: %v", err)
	}
	sm, ok := m.(*protocol.ShardedMsg)
	if !ok {
		t.Fatalf("eager decode produced %T, want *ShardedMsg", m)
	}
	if err := codec.UnpackFrame(data, shards, v); err != nil {
		t.Fatalf("UnpackFrame: %v", err)
	}
	if len(v.Digests) != len(sm.Digests) {
		t.Fatalf("digests %v, want %v", v.Digests, sm.Digests)
	}
	for i := range v.Digests {
		if v.Digests[i] != sm.Digests[i] {
			t.Fatalf("digests %v, want %v", v.Digests, sm.Digests)
		}
	}
	if !reflect.DeepEqual(v.Link, sm.Link) {
		t.Fatalf("link header %+v, want %+v", v.Link, sm.Link)
	}
	want, dropped := flattenEager(t, sm, shards)
	if v.Dropped != dropped {
		t.Fatalf("Dropped = %d, want %d", v.Dropped, dropped)
	}
	// The view groups by shard but keeps per-shard wire order: a stable
	// sort of the eager flattening is the expected sequence.
	sort.SliceStable(want, func(i, j int) bool { return want[i].shard < want[j].shard })
	got := flattenView(t, v)
	if len(got) != len(want) {
		t.Fatalf("unpacked %d items, want %d", len(got), len(want))
	}
	if v.NumItems() != len(want) {
		t.Fatalf("NumItems = %d, want %d", v.NumItems(), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func encodeMsg(t testing.TB, m protocol.Msg) []byte {
	t.Helper()
	data, err := codec.EncodeMsg(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

func unpackGSetDelta(seed, n int) protocol.Msg {
	els := make([]string, n)
	for i := range els {
		els[i] = fmt.Sprintf("el-%d-%d", seed, i)
	}
	s := crdt.NewGSet(els...)
	return protocol.NewDeltaMsg(s)
}

func unpackBatch(shard uint32, keys ...string) protocol.ShardItem {
	oms := make([]protocol.ObjectMsg, 0, len(keys))
	for i, k := range keys {
		oms = append(oms, protocol.ObjectMsg{Key: k, Inner: unpackGSetDelta(int(shard)*100+i, 1+i)})
	}
	return protocol.ShardItem{Shard: shard, Msg: protocol.BatchOf(oms)}
}

// TestUnpackFrameGrouped: a frame's keyed run, in key order, and its bare
// items regroup into one group per shard the keys route to or the bare
// items name, and a view is reused across frames of both sharded variants.
func TestUnpackFrameGrouped(t *testing.T) {
	var v codec.FrameView
	first := encodeMsg(t, protocol.NewShardedMsg([]protocol.ShardItem{
		unpackBatch(0, "a", "b"),
		{Shard: 1, Msg: protocol.NewTreeMsg(1, protocol.TreeDepth, []uint32{5}, nil)}, // keyless
		unpackBatch(1, "c"),
		unpackBatch(3, "d", "e", "f"),
	}))
	checkUnpacked(t, first, 4, &v)
	if got, want := len(v.Groups()), shardsOf(4, []string{"a", "b", "c", "d", "e", "f"}, 1); got != want {
		t.Fatalf("groups = %d, want %d", got, want)
	}
	// Reuse the same view on a digest-carrying frame: everything from the
	// first unpack must be gone.
	second := encodeMsg(t, protocol.NewShardedDigestMsg([]protocol.ShardItem{
		unpackBatch(2, "x"),
	}, []uint64{7, 8, 9, 10}))
	checkUnpacked(t, second, 4, &v)
	if got := len(v.Groups()); got != 1 {
		t.Fatalf("groups = %d, want 1", got)
	}
}

// TestUnpackFrameInterleaved: batches the sender emitted out of shard
// order, one shard's in two, join one run and regroup into one group per
// shard with each shard's items in key order.
func TestUnpackFrameInterleaved(t *testing.T) {
	var v codec.FrameView
	data := encodeMsg(t, protocol.NewShardedMsg([]protocol.ShardItem{
		unpackBatch(2, "c1"),
		unpackBatch(0, "a1", "a2"),
		unpackBatch(2, "c2"),
		unpackBatch(1, "b1"),
		unpackBatch(0, "a3"),
	}))
	checkUnpacked(t, data, 4, &v)
	if got, want := len(v.Groups()), shardsOf(4, []string{"a1", "a2", "a3", "b1", "c1", "c2"}); got != want {
		t.Fatalf("groups = %d, want %d", got, want)
	}
}

// TestUnpackFrameDropped covers shard-map skew: bare items that name a
// shard beyond the receiver's shard count are counted and skipped, not
// delivered. Keyed items carry no shard index: whatever shard the sender
// filed them under, the receiver routes each by its key.
func TestUnpackFrameDropped(t *testing.T) {
	var v codec.FrameView
	closeOn := func(shard uint32) protocol.ShardItem {
		return protocol.ShardItem{Shard: shard, Msg: protocol.NewTreeMsg(shard, protocol.TreeDepth, []uint32{5}, nil)}
	}
	data := encodeMsg(t, protocol.NewShardedMsg([]protocol.ShardItem{
		unpackBatch(1, "keep"),
		unpackBatch(9, "routed1", "routed2"),
		closeOn(2),
		closeOn(9),
		closeOn(40_000),
	}))
	checkUnpacked(t, data, 4, &v)
	if v.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", v.Dropped)
	}
	if v.NumItems() != 4 {
		t.Fatalf("NumItems = %d, want 4", v.NumItems())
	}
}

// TestUnpackFrameNotSharded: every non-sharded message kind falls back to
// the eager decoder via the sentinel error.
func TestUnpackFrameNotSharded(t *testing.T) {
	var v codec.FrameView
	for _, m := range []protocol.Msg{
		unpackGSetDelta(1, 3),
		protocol.NewDigestMsg([]uint64{1, 2}),
		protocol.BatchOf(nil),
	} {
		if err := codec.UnpackFrame(encodeMsg(t, m), 4, &v); !errors.Is(err, codec.ErrNotSharded) {
			t.Fatalf("%s: err = %v, want ErrNotSharded", m.Kind(), err)
		}
	}
	if err := codec.UnpackFrame(nil, 4, &v); err == nil || errors.Is(err, codec.ErrNotSharded) {
		t.Fatalf("empty input: err = %v, want a truncation error", err)
	}
}

// TestUnpackFrameHostile: truncated and count-inflated frames fail with
// an error before any large allocation, mirroring the eager decoder.
func TestUnpackFrameHostile(t *testing.T) {
	var v codec.FrameView
	for _, data := range [][]byte{
		{72, 2, 1},                   // sharded, 2 items, truncated
		{74, 255, 255, 255, 255, 15}, // sharded+digest, hostile digest count
		{72, 255, 255, 255, 255, 15}, // sharded, hostile item count
	} {
		if err := codec.UnpackFrame(data, 4, &v); err == nil {
			t.Fatalf("%v: accepted hostile input", data)
		}
	}
	// A valid frame must also unpack after hostile failures reused the view.
	checkUnpacked(t, encodeMsg(t, protocol.NewShardedMsg([]protocol.ShardItem{
		unpackBatch(0, "ok"),
	})), 4, &v)
}

// TestItemViewTags: an item's view carries its payload's first byte — on a
// keyed δ-group the state's tag, tagKeyEntry (11) for a map field — and
// an item with one of the tags IsAckTag names is not skipped by tag any
// more — no such message has a wire form, so the frame it sits in is
// refused whole, what unpacked before it included.
func TestItemViewTags(t *testing.T) {
	var v codec.FrameView
	good, err := codec.AppendObjectMsg(nil, nil, protocol.ObjectMsg{Key: "k", Inner: unpackGSetDelta(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	k, f := "k", "m/a/f"
	field, err := codec.AppendObjectMsg(nil, &k, protocol.ObjectMsg{Key: f, Inner: protocol.NewDeltaMsg(lattice.NewMapEntry(f, &crdt.LWWRegister{TS: 1, Writer: "r", Val: "v"}))})
	if err != nil {
		t.Fatal(err)
	}
	if field, err = codec.AppendObjectMsg(field, &f, protocol.ObjectMsg{Key: "n", Inner: protocol.NewAckedDeltaMsg(crdt.NewGSet("x"), []uint64{2})}); err != nil {
		t.Fatal(err)
	}
	data := append(codec.AppendShardedHeader(nil, protocol.LinkHeader{}, nil, 3, 0), good...)
	data = append(data, field...)
	// One shard: the items' group is the run, in key order.
	if err := codec.UnpackFrame(data, 1, &v); err != nil {
		t.Fatalf("UnpackFrame: %v", err)
	}
	for i, want := range []byte{7, 11, 66} { // GSet state, map field, the per-object acked form
		if iv := &v.Groups()[0].Items[i]; iv.Tag() != want || codec.IsAckTag(iv.Tag()) {
			t.Fatalf("item %d has tag %d, classified as ack: %v; want tag %d", i, iv.Tag(), codec.IsAckTag(iv.Tag()), want)
		}
	}
	for _, c := range []struct {
		tag  byte
		item []byte
		bare bool
	}{
		{67, []byte{0, 67, 1, 1}, true},          // shard 0: a per-object acknowledgement
		{68, []byte{0, 68, 0, 0}, true},          // shard 0: a Scuttlebutt digest
		{67, []byte{0, 1, 'l', 67, 1, 1}, false}, // the acknowledgement as a keyed item's message
	} {
		if !codec.IsAckTag(c.tag) {
			t.Fatalf("tag %d is not an ack tag", c.tag)
		}
		keyed, bare := 2, 0
		if c.bare {
			keyed, bare = 1, 1
		}
		data := append(codec.AppendShardedHeader(nil, protocol.LinkHeader{}, nil, keyed, bare), good...)
		data = append(data, c.item...)
		if err := codec.UnpackFrame(data, 4, &v); !errors.Is(err, codec.ErrUnknownTag) {
			t.Fatalf("item %v: error %v, want ErrUnknownTag", c.item, err)
		}
		if v.NumItems() != 0 || len(v.Groups()) != 0 {
			t.Fatalf("item %v: the refused frame left %d items in %d groups", c.item, v.NumItems(), len(v.Groups()))
		}
	}
}

// TestUnpackHostileItemCount: a frame whose run claims 2^40 items, or one
// more than the bytes that remain, over a few dozen bytes, and a batch that
// claims 2^40, are refused having allocated what the items that are there
// decode to — nothing is sized from a count.
func TestUnpackHostileItemCount(t *testing.T) {
	var items []byte
	keys := []string{"a", "b", "c"}
	for i, k := range keys {
		var prev *string
		if i > 0 {
			prev = &keys[i-1]
		}
		var err error
		if items, err = codec.AppendObjectMsg(items, prev, protocol.ObjectMsg{Key: k, Inner: unpackGSetDelta(0, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	frame := func(keyed uint64) []byte {
		return append(binary.AppendUvarint([]byte{72}, keyed<<1), items...)
	}
	data := frame(1 << 40) // sharded, a run of 2^40 items
	var v codec.FrameView
	for _, keyed := range []uint64{1 << 40, uint64(len(items)) + 1} {
		if err := codec.UnpackFrame(frame(keyed), 4, &v); !errors.Is(err, codec.ErrTruncated) {
			t.Fatalf("a run of %d items: error %v, want ErrTruncated", keyed, err)
		}
		if _, _, err := codec.DecodeMsg(frame(keyed)); !errors.Is(err, codec.ErrTruncated) {
			t.Fatalf("a run of %d items, eager decode: error %v, want ErrTruncated", keyed, err)
		}
	}
	batch := append(binary.AppendUvarint([]byte{71}, 1<<40), items...) // a batch of 2^40
	if _, _, err := codec.DecodeMsg(batch); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("a batch of 2^40 items: error %v, want ErrTruncated", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 100
	for i := 0; i < runs; i++ {
		codec.UnpackFrame(data, 4, &v)
	}
	runtime.ReadMemStats(&after)
	// Three one-element sets: a state, its element slice, the element and
	// the message, each a few dozen bytes.
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16*uint64(len(data)) {
		t.Fatalf("refusing %d hostile bytes allocates %d bytes", len(data), per)
	}
	if _, _, err := codec.DecodeMsg(data); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("eager decode: error %v, want ErrTruncated", err)
	}
}

// linkedFrames returns sharded frames with link headers over the given
// batch: numbered, acknowledging with ranges, both with a digest vector,
// an acknowledgement with no items, and one with an empty vector.
func linkedFrames(batch protocol.Msg) []protocol.Msg {
	other := protocol.BatchOf([]protocol.ObjectMsg{{Key: "p:1", Inner: protocol.NewDeltaMsg(crdt.NewGSet("c"))}})
	items := []protocol.ShardItem{{Shard: 2, Msg: batch}, {Shard: 0, Msg: other}}
	seq := protocol.FrameSeq{Seq: 300, Back: 2}
	ack := protocol.FrameAck{Inc: 0x01020304, Cum: 127, Ranges: []protocol.SeqRange{{Lo: 129, Hi: 129}, {Lo: 140, Hi: 1 << 40}}}
	return []protocol.Msg{
		protocol.NewShardedLinkMsg(items, nil, protocol.LinkHeader{Seq: seq}),
		protocol.NewShardedLinkMsg(items, nil, protocol.LinkHeader{Seq: seq, Ack: ack}),
		protocol.NewShardedLinkMsg(items, []uint64{7, ^uint64(0)}, protocol.LinkHeader{Seq: seq, Ack: ack}),
		protocol.NewShardedLinkMsg(nil, nil, protocol.LinkHeader{Ack: protocol.FrameAck{Inc: 1, Cum: 0}}),
		protocol.NewShardedLinkMsg(nil, []uint64{}, protocol.LinkHeader{Ack: ack}),
	}
}

// linkShapes returns one sharded frame over batch for each of the ten
// shapes of link header, and so for each tag of the link block that is
// not refused: a sequence number, an acknowledgement, with and without
// ranges, or both; each with and without a digest vector.
func linkShapes(batch protocol.Msg) []protocol.Msg {
	items := []protocol.ShardItem{{Shard: 1, Msg: batch}}
	seq := protocol.FrameSeq{Seq: 41, Back: 3}
	bare := protocol.FrameAck{Inc: 0x0a0b0c0d, Cum: 40}
	ranged := protocol.FrameAck{Inc: 0x0a0b0c0d, Cum: 40, Ranges: []protocol.SeqRange{{Lo: 43, Hi: 44}}}
	var out []protocol.Msg
	for _, link := range []protocol.LinkHeader{
		{Seq: seq}, {Ack: bare}, {Ack: ranged}, {Seq: seq, Ack: bare}, {Seq: seq, Ack: ranged},
	} {
		out = append(out,
			protocol.NewShardedLinkMsg(items, nil, link),
			protocol.NewShardedLinkMsg(items, []uint64{5}, link))
	}
	return out
}

// refusedLinkTags returns a frame under each tag of the link block that
// names no header — neither a sequence number nor an acknowledgement, or
// ranges without an acknowledgement — with plausible bytes behind it.
func refusedLinkTags() [][]byte {
	const tagLinkMsg = 79
	var out [][]byte
	for _, flags := range []byte{4, 8, 9, 12, 13} { // digests, ranges, ranges|seq, ranges|digests, ranges|digests|seq
		out = append(out, []byte{tagLinkMsg - 1 + flags, 2, 1, 1, 0, 1, 0, 0})
	}
	return out
}

// FuzzUnpackFrame differentially fuzzes the single-pass unpacker against
// the eager decoder: on any input, UnpackFrame must never panic, must
// accept exactly the sharded frames DecodeMsg accepts (rejecting other
// accepted kinds with ErrNotSharded), and on acceptance must produce the
// same items, digests and drop count — with every view's message
// encoding to bytes identical to its eager counterpart, still so after
// the buffer is overwritten (alias safety: payloads index the input
// buffer, keys are rebuilt into the view, decodes copy out of it). After
// any input it rejects the view is empty.
func FuzzUnpackFrame(f *testing.F) {
	seed := func(m protocol.Msg) {
		if d, err := codec.EncodeMsg(m); err == nil {
			f.Add(d)
		}
	}
	batch := protocol.BatchOf([]protocol.ObjectMsg{
		{Key: "obj:1", Inner: protocol.NewDeltaMsg(crdt.NewGSet("a"))},
		{Key: "obj:2", Inner: protocol.NewAckedDeltaMsg(crdt.NewGSet("b"), []uint64{3})},
	})
	seed(protocol.NewShardedMsg([]protocol.ShardItem{
		{Shard: 0, Msg: batch},
		{Shard: 7, Msg: protocol.NewDeltaMsg(crdt.NewGSet("q"))}, // beyond the fuzz shard count: dropped
	}))
	// A retired tag (a per-object acknowledgement) behind an item that
	// unpacks, and in an item that is dropped: refused, not skipped.
	f.Add([]byte{72, 1, 2, 0, 65, 7, 1, 1, 97, 0, 67, 1, 9})
	f.Add([]byte{72, 1, 1, 7, 67, 1, 9})
	seed(protocol.NewShardedDigestMsg([]protocol.ShardItem{
		{Shard: 3, Msg: protocol.NewDeltaMsg(crdt.NewGSet("p"))},
		{Shard: 1, Msg: batch}, // out of shard order: counting-sort path
	}, []uint64{0, ^uint64(0), 0xabcdef}))
	seed(protocol.NewDigestMsg([]uint64{0, ^uint64(0)}))
	// Standalone hash pushes (not sharded), and a drill's close the way it
	// travels — the last item of its shard in a sharded frame, after the
	// states it goes with.
	seed(protocol.NewTreeMsg(2, 0, []uint32{0}, pushHashes(1)))
	seed(protocol.NewTreeMsg(0, 2, []uint32{9, 15}, pushHashes(2)))
	seed(protocol.NewShardedMsg([]protocol.ShardItem{
		{Shard: 1, Msg: batch},
		{Shard: 1, Msg: protocol.NewTreeMsg(1, protocol.TreeDepth, []uint32{5}, nil)},
	}))
	f.Add([]byte{72, 2, 1})                   // sharded, 2 items, truncated
	f.Add([]byte{74, 255, 255, 255, 255, 15}) // sharded+digest, hostile count
	f.Add([]byte{72, 1, 1, 3, 70, 1, 1, 97, 64, 1})
	f.Add([]byte{72, 1, 1, 2, 75, 0, 2, 1, 1, 2, 1, 2, 3}) // embedded tree push, truncated hashes
	// The linked variant: numbered, acknowledging with ranges, both with a
	// digest vector, an acknowledgement with no items, and hostile headers.
	for _, m := range linkedFrames(batch) {
		seed(m)
	}
	f.Add([]byte{88, 0, 0, 0, 9, 4, 255, 255, 255, 255, 15}) // hostile range count
	f.Add([]byte{79, 3, 3, 0})                               // back reaches the number
	f.Add([]byte{76, 4, 0, 0})                               // the retired flag-byte form
	f.Add([]byte{80, 0, 0, 0, 0, 1, 0})                      // zero incarnation
	// A hello standalone (not sharded), and as an item, whole and with a
	// hostile id count.
	seed(protocol.NewHelloMsg(protocol.WireVersion, 4, 7, []string{"s-01"}))
	seed(protocol.NewShardedMsg([]protocol.ShardItem{{Shard: 1, Msg: protocol.NewHelloMsg(protocol.WireVersion, 4, 7, []string{"s-01", "s-02"})}}))
	f.Add([]byte{72, 1, 1, 1, 77, 2, 4, 0, 0, 0, 7, 255, 255, 255, 255, 15, 1, 97})
	// Every tag of the link block: each shape of link header, and the
	// values that name none.
	for _, m := range linkShapes(batch) {
		seed(m)
	}
	for _, data := range refusedLinkTags() {
		f.Add(data)
	}
	// Every form of a keyed item, and every spelling refused in one or of
	// tagKeyEntry outside one.
	forms, refused := keyedFrames()
	for _, data := range forms {
		f.Add(data)
	}
	for _, data := range sortedValues(refused) {
		f.Add(data)
	}
	// A batch whose keys after the first are written against the one
	// before, behind a link header.
	seed(protocol.NewShardedLinkMsg([]protocol.ShardItem{{Shard: 2, Msg: benchKeyBatch()}}, nil, protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: 1}}))
	// A bulk-acked frame's run, its keys from six shards in one chain,
	// plainly and numbered, and every spelling of a run that is refused.
	seed(protocol.NewShardedMsg(benchFrameItems()))
	seed(protocol.NewShardedLinkMsg(benchFrameItems(), nil, protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: 9, Back: 1}}))
	for _, data := range sortedValues(refusedRuns()) {
		f.Add(data)
	}

	const shards = 4
	f.Fuzz(func(t *testing.T, data []byte) {
		// Work on a copy: the alias-safety check below clobbers the frame
		// buffer, and the fuzz engine owns data.
		buf := append([]byte(nil), data...)
		var v codec.FrameView
		uerr := codec.UnpackFrame(buf, shards, &v)
		m, _, derr := codec.DecodeMsg(data)
		sm, sharded := m.(*protocol.ShardedMsg)
		switch {
		case derr != nil:
			// The eager decoder rejects this input; the unpacker must too
			// (possibly as not-sharded, when the leading tag already rules
			// the frame out).
			if uerr == nil {
				t.Fatalf("unpacker accepted input the decoder rejects: %v", derr)
			}
		case !sharded:
			if !errors.Is(uerr, codec.ErrNotSharded) {
				t.Fatalf("non-sharded %s: err = %v, want ErrNotSharded", m.Kind(), uerr)
			}
		case uerr != nil:
			t.Fatalf("unpacker rejected a decodable sharded frame: %v", uerr)
		}
		if uerr != nil {
			// A pooled view never pins the decoded half of a refused frame.
			if v.NumItems() != 0 || len(v.Groups()) != 0 {
				t.Fatalf("rejected input left %d items in %d groups", v.NumItems(), len(v.Groups()))
			}
			return
		}
		// Mutating the input after unpacking must not corrupt decoded
		// messages: the decoders copy out of the buffer. Encode every view's
		// message first, then clobber, then compare against the eager
		// flattening.
		checkUnpacked(t, buf, shards, &v)
		got := flattenView(t, &v)
		for i := range buf {
			buf[i] = 0xff
		}
		want, _ := flattenEager(t, sm, shards)
		sort.SliceStable(want, func(i, j int) bool { return want[i].shard < want[j].shard })
		for i := range got {
			if got[i].enc != want[i].enc {
				t.Fatalf("decoded item %d changed after buffer reuse", i)
			}
		}
	})
}

// unpackBenchFrame builds a sync-tick frame: one per-shard batch of
// single-element GSet deltas for each of shards shards, objects per
// batch — the same shapes the transport's BenchmarkDeliver uses.
func unpackBenchFrame(tb testing.TB, shards, objectsPerShard int) []byte {
	tb.Helper()
	items := make([]protocol.ShardItem, 0, shards)
	for sh := 0; sh < shards; sh++ {
		oms := make([]protocol.ObjectMsg, 0, objectsPerShard)
		for i := 0; i < objectsPerShard; i++ {
			oms = append(oms, protocol.ObjectMsg{
				Key:   fmt.Sprintf("k%d-%d", sh, i),
				Inner: unpackGSetDelta(sh*100+i, 1),
			})
		}
		items = append(items, protocol.ShardItem{Shard: uint32(sh), Msg: protocol.BatchOf(oms)})
	}
	return encodeMsg(tb, protocol.NewShardedMsg(items))
}

// BenchmarkUnpack measures the codec half of the inbound path: turning
// frame bytes into shard-grouped, lock-routable, decoded items. The one
// walk decodes each item's message, so an unpack allocates what the
// messages take (the views themselves are reused); BenchmarkDeliver in
// internal/transport is the figure that spans the whole inbound path.
func BenchmarkUnpack(b *testing.B) {
	for _, shape := range []struct {
		name            string
		shards, objects int
	}{
		{name: "hot", shards: 4, objects: 1},
		{name: "bulk", shards: 64, objects: 32},
	} {
		frame := unpackBenchFrame(b, shape.shards, shape.objects)
		items := shape.shards * shape.objects
		b.Run(shape.name+"/view", func(b *testing.B) {
			var v codec.FrameView
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := codec.UnpackFrame(frame, shape.shards, &v); err != nil {
					b.Fatalf("UnpackFrame: %v", err)
				}
				if v.NumItems() != items {
					b.Fatalf("items = %d, want %d", v.NumItems(), items)
				}
			}
			b.ReportMetric(float64(items), "items/op")
		})
	}
}

// bulkShapedFrame builds a frame the shape of a bulk store's: 600 keyed
// δ-groups over 64 shard batches, ascending within each, counters and sets
// at the keys the benchmark draws, so every key after a batch's first is
// written against the one before it. It returns the frame and the
// allocations its items' messages take to decode, each alone.
func bulkShapedFrame(t *testing.T) ([]byte, int) {
	t.Helper()
	const shards, items = 64, 600
	batches := make([][]protocol.ObjectMsg, shards)
	msgAllocs := 0
	for i := 0; i < items; i++ {
		key, inner := fmt.Sprintf("c/n%08d", i), protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta("store-01", uint64(i+1)))
		if i%3 == 0 {
			key, inner = fmt.Sprintf("s/n%08d", i), protocol.NewDeltaMsg(crdt.NewGSet(fmt.Sprintf("e%03d", i%1000)))
		}
		alone := encodeMsg(t, inner)
		msgAllocs += int(testing.AllocsPerRun(10, func() { codec.DecodeMsg(alone) }))
		batches[i%shards] = append(batches[i%shards], protocol.ObjectMsg{Key: key, Inner: inner})
	}
	var sis []protocol.ShardItem
	for s, b := range batches {
		slices.SortFunc(b, func(x, y protocol.ObjectMsg) int { return strings.Compare(x.Key, y.Key) })
		sis = append(sis, protocol.ShardItem{Shard: uint32(s), Msg: protocol.BatchOf(b)})
	}
	return encodeMsg(t, protocol.NewShardedMsg(sis)), msgAllocs
}

// TestUnpackKeysAllocateNothing: a warmed view rebuilds a bulk-shaped
// frame's keys into its own buffer and allocates nothing for them — an
// unpack allocates exactly what its items' messages take. Reset keeps that
// buffer for the next frame, and drops one grown past what a pooled view
// may retain.
func TestUnpackKeysAllocateNothing(t *testing.T) {
	frame, msgAllocs := bulkShapedFrame(t)
	var v codec.FrameView
	if err := codec.UnpackFrame(frame, 64, &v); err != nil || v.NumItems() != 600 {
		t.Fatalf("unpacked %d items: %v", v.NumItems(), err)
	}
	if got := testing.AllocsPerRun(20, func() { codec.UnpackFrame(frame, 64, &v) }); int(got) != msgAllocs {
		t.Errorf("a warmed view unpacks 600 items in %v allocations, want the messages' %d", got, msgAllocs)
	}
	v.Reset()
	if codec.KeyBufferCap(&v) == 0 {
		t.Error("Reset dropped a bulk frame's key buffer")
	}
	long := make([]protocol.ObjectMsg, 0, 3000)
	for i := 0; i < cap(long); i++ {
		long = append(long, protocol.ObjectMsg{Key: fmt.Sprintf("%040d", i), Inner: protocol.NewDeltaMsg(crdt.NewGSet("e"))})
	}
	if err := codec.UnpackFrame(encodeMsg(t, protocol.NewShardedMsg([]protocol.ShardItem{{Shard: 0, Msg: protocol.BatchOf(long)}})), 64, &v); err != nil {
		t.Fatal(err)
	}
	if codec.KeyBufferCap(&v) <= codec.MaxRetainedKeyBytes {
		t.Fatalf("3 000 keys of 40 bytes fit a buffer of %d", codec.KeyBufferCap(&v))
	}
	if v.Reset(); codec.KeyBufferCap(&v) != 0 {
		t.Errorf("Reset kept a key buffer of %d bytes, past the %d a pooled view retains", codec.KeyBufferCap(&v), codec.MaxRetainedKeyBytes)
	}
}

// smallUnpackTime returns the best-of-five time of one unpack of small
// into v, averaged over rounds unpacks.
func smallUnpackTime(t testing.TB, v *codec.FrameView, small []byte, shards int) time.Duration {
	t.Helper()
	const rounds = 2000
	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := codec.UnpackFrame(small, shards, v); err != nil {
				t.Fatalf("UnpackFrame: %v", err)
			}
		}
		best = min(best, time.Since(start)/rounds)
	}
	return best
}

// TestUnpackSmallAfterLarge pins that a view's reset costs what its last
// frame used, not what its largest frame ever used: after one 20 000-item
// frame (its run over every shard, so the grouping scratch grows too), a 10-item frame
// must unpack as fast as into a fresh view. Clearing the item arrays at
// full capacity made every later small frame memclr ~2.9 MB — a third of
// the steady workload's CPU once a single bulk frame had passed through.
func TestUnpackSmallAfterLarge(t *testing.T) {
	const shards = 64
	large := unpackBenchFrame(t, shards, 313)
	small := unpackBenchFrame(t, 2, 5)

	var fresh, used, reset codec.FrameView
	for _, v := range []*codec.FrameView{&used, &reset} {
		if err := codec.UnpackFrame(large, shards, v); err != nil {
			t.Fatal(err)
		}
		if v.NumItems() != shards*313 {
			t.Fatalf("large frame unpacked to %d items", v.NumItems())
		}
	}
	reset.Reset() // as before a pool Put: oversized arrays are dropped
	base := smallUnpackTime(t, &fresh, small, shards)
	for name, v := range map[string]*codec.FrameView{"reused": &used, "reset": &reset} {
		got := smallUnpackTime(t, v, small, shards)
		t.Logf("10-item frame: %v into a fresh view, %v into a %s one", base, got, name)
		if got > 2*base {
			t.Errorf("10-item frame takes %v to unpack into a view %s after a 20k-item frame, %v into a fresh one", got, name, base)
		}
		checkUnpacked(t, small, shards, v)
	}
}
