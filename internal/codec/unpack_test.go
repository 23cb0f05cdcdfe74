package codec_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

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

// packFrame writes the frame a store's packer writes for items, under
// link and with digests, through the packer's own append functions: the
// keyed items of their batches as one run in key order, each against the
// key and the replica names before it (appendKeyedMsg), then every other
// item bare (codec.AppendShardItem), in order. It panics on an item the
// packer cannot write.
func packFrame(items []protocol.ShardItem, digests []uint64, link protocol.LinkHeader) []byte {
	var run []protocol.ObjectMsg
	var bare []protocol.ShardItem
	for _, it := range items {
		if bm, keyed := it.Msg.(*protocol.BatchMsg); keyed {
			run = append(run, bm.Items...)
		} else {
			bare = append(bare, it)
		}
	}
	slices.SortStableFunc(run, func(a, b protocol.ObjectMsg) int { return strings.Compare(a.Key, b.Key) })
	b := codec.AppendShardedHeader(nil, link, digests, len(run), len(bare))
	var nt codec.Names
	var err error
	for i, om := range run {
		var prev *string
		if i > 0 {
			prev = &run[i-1].Key
		}
		if b, err = appendKeyedMsg(b, prev, om, &nt); err != nil {
			panic(err)
		}
	}
	for _, it := range bare {
		if b, err = codec.AppendShardItem(b, it); err != nil {
			panic(err)
		}
	}
	return b
}

// appendKeyedMsg appends om as a frame's keyed item (codec.AppendKeyed):
// its δ-group's state, an AckedDeltaMsg's entry seqs left behind.
func appendKeyedMsg(b []byte, prev *string, om protocol.ObjectMsg, nt *codec.Names) ([]byte, error) {
	switch v := om.Inner.(type) {
	case *protocol.DeltaMsg:
		return codec.AppendKeyed(b, prev, om.Key, v.Delta, nt)
	case *protocol.AckedDeltaMsg:
		return codec.AppendKeyed(b, prev, om.Key, v.Delta, nt)
	}
	return nil, fmt.Errorf("no keyed form for %T", om.Inner)
}

// batchOf is a BatchMsg over oms, the δ-groups of one shard.
func batchOf(oms []protocol.ObjectMsg) *protocol.BatchMsg {
	return &protocol.BatchMsg{Items: oms}
}

// repack writes what v holds back as a frame (packFrame): its keyed items
// in key order, its bare items in frame order, under its link header and
// with its digest vector. For a frame that dropped no item it is the
// frame's one spelling.
func repack(v *codec.FrameView) []byte {
	var keyed []protocol.ObjectMsg
	var items []protocol.ShardItem
	for _, iv := range codec.FrameItems(v) {
		m, _ := iv.Msg()
		if iv.Key == nil {
			items = append(items, protocol.ShardItem{Shard: iv.Shard, Msg: m})
		} else {
			keyed = append(keyed, protocol.ObjectMsg{Key: string(iv.Key), Inner: m})
		}
	}
	if len(keyed) > 0 {
		items = append(items, protocol.ShardItem{Msg: batchOf(keyed)})
	}
	var digests []uint64
	if len(v.Digests) > 0 {
		digests = v.Digests
	}
	return packFrame(items, digests, v.Link)
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
// a keyed item the shard its key routes to, no shard appears in two
// groups, and each view holds its payload's message.
func flattenView(t testing.TB, v *codec.FrameView, shards int) []flatItem {
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
			if iv.Shard != g.Shard || iv.Key != nil && iv.Shard != protocol.ShardOf(string(iv.Key), shards) {
				t.Fatalf("item %q of shard %d inside group %d", iv.Key, iv.Shard, g.Shard)
			}
			m, err := iv.Msg()
			if err != nil || m == nil {
				t.Fatalf("unpacked item holds message %v, error %v", m, err)
			}
			var enc []byte
			if iv.Key == nil {
				enc = encodeMsg(t, m)
			} else if enc, err = appendKeyedMsg(nil, nil, protocol.ObjectMsg{Key: string(iv.Key), Inner: m}, new(codec.Names)); err != nil {
				t.Fatalf("re-encode decoded item: %v", err)
			}
			out = append(out, flatItem{shard: g.Shard, key: string(iv.Key), enc: string(enc)})
		}
	}
	if n := len(out); n != v.NumItems() || n != len(codec.FrameItems(v)) {
		t.Fatalf("groups hold %d items, NumItems says %d", n, v.NumItems())
	}
	return out
}

// checkUnpacked unpacks data, a frame that names no shard beyond shards,
// into v, checks the grouping invariants, and that the view re-packs to
// exactly data.
func checkUnpacked(t testing.TB, data []byte, shards int, v *codec.FrameView) {
	t.Helper()
	if err := codec.UnpackFrame(data, shards, v); err != nil {
		t.Fatalf("UnpackFrame: %v", err)
	}
	flattenView(t, v, shards)
	if v.Dropped != 0 {
		t.Fatalf("Dropped = %d", v.Dropped)
	}
	if again := repack(v); !bytes.Equal(again, data) {
		t.Fatalf("frame %x re-packs as %x", data, again)
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
	return protocol.ShardItem{Shard: shard, Msg: batchOf(oms)}
}

// TestUnpackFrameGrouped: a frame's keyed run, in key order, and its bare
// items regroup into one group per shard the keys route to or the bare
// items name, and a view is reused across frames of both sharded variants.
func TestUnpackFrameGrouped(t *testing.T) {
	var v codec.FrameView
	first := packFrame([]protocol.ShardItem{
		unpackBatch(0, "a", "b"),
		{Shard: 1, Msg: protocol.NewTreeMsg(1, protocol.TreeDepth, []uint32{5}, nil)}, // keyless
		unpackBatch(1, "c"),
		unpackBatch(3, "d", "e", "f"),
	}, nil, protocol.LinkHeader{})
	checkUnpacked(t, first, 4, &v)
	if got, want := len(v.Groups()), shardsOf(4, []string{"a", "b", "c", "d", "e", "f"}, 1); got != want {
		t.Fatalf("groups = %d, want %d", got, want)
	}
	// Reuse the same view on a digest-carrying frame: everything from the
	// first unpack must be gone.
	second := packFrame([]protocol.ShardItem{unpackBatch(2, "x")}, []uint64{7, 8, 9, 10}, protocol.LinkHeader{})
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
	data := packFrame([]protocol.ShardItem{
		unpackBatch(2, "c1"),
		unpackBatch(0, "a1", "a2"),
		unpackBatch(2, "c2"),
		unpackBatch(1, "b1"),
		unpackBatch(0, "a3"),
	}, nil, protocol.LinkHeader{})
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
	data := packFrame([]protocol.ShardItem{
		unpackBatch(1, "keep"),
		unpackBatch(9, "routed1", "routed2"),
		closeOn(2),
		closeOn(9),
		closeOn(40_000),
	}, nil, protocol.LinkHeader{})
	if err := codec.UnpackFrame(data, 4, &v); err != nil {
		t.Fatal(err)
	}
	if v.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", v.Dropped)
	}
	var keys []string
	for _, it := range flattenView(t, &v, 4) {
		keys = append(keys, it.key)
	}
	if slices.Sort(keys); !slices.Equal(keys, []string{"", "keep", "routed1", "routed2"}) {
		t.Fatalf("kept %q, want the close on shard 2 and the three keyed items", keys)
	}
	// Under 2^16 shards nothing is dropped, and the frame re-packs.
	checkUnpacked(t, data, 1<<16, &v)
}

// TestUnpackFrameNotSharded: every non-sharded message kind falls back to
// DecodeMsg via the sentinel error.
func TestUnpackFrameNotSharded(t *testing.T) {
	var v codec.FrameView
	for _, m := range []protocol.Msg{
		unpackGSetDelta(1, 3),
		protocol.NewDigestMsg([]uint64{1, 2}),
		batchOf(nil),
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
// an error before any large allocation.
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
	checkUnpacked(t, packFrame([]protocol.ShardItem{unpackBatch(0, "ok")}, nil, protocol.LinkHeader{}), 4, &v)
}

// TestItemViewTags: an item's view carries its payload's first byte — on a
// keyed δ-group the state's tag, tagKeyEntry (11) for a map field,
// tagCounterEntry (12) for a one-entry counter, tagSetElement (13) for a
// one-element set — and
// an item with one of the tags IsAckTag names is not skipped by tag any
// more — no such message has a wire form, so the frame it sits in is
// refused whole, what unpacked before it included.
func TestItemViewTags(t *testing.T) {
	var v codec.FrameView
	var nt codec.Names
	good, err := appendKeyedMsg(nil, nil, protocol.ObjectMsg{Key: "k", Inner: unpackGSetDelta(0, 1)}, &nt)
	if err != nil {
		t.Fatal(err)
	}
	k, f := "k", "m/a/f"
	field, err := appendKeyedMsg(nil, &k, protocol.ObjectMsg{Key: f, Inner: protocol.NewDeltaMsg(lattice.NewMapEntry(f, &crdt.LWWRegister{TS: 1, Writer: "r", Val: "v"}))}, &nt)
	if err != nil {
		t.Fatal(err)
	}
	if field, err = appendKeyedMsg(field, &f, protocol.ObjectMsg{Key: "n", Inner: protocol.NewAckedDeltaMsg(crdt.NewGCounter().IncDelta("r", 2), []uint64{2})}, &nt); err != nil {
		t.Fatal(err)
	}
	data := append(codec.AppendShardedHeader(nil, protocol.LinkHeader{}, nil, 3, 0), good...)
	data = append(data, field...)
	// One shard: the items' group is the run, in key order.
	if err := codec.UnpackFrame(data, 1, &v); err != nil {
		t.Fatalf("UnpackFrame: %v", err)
	}
	for i, want := range []byte{13, 11, 12} { // a one-element GSet, a map field, a one-entry counter
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
// more than the bytes that remain, over a few dozen bytes, is refused
// having allocated what the items that are there decode to — nothing is
// sized from a count.
func TestUnpackHostileItemCount(t *testing.T) {
	var items []byte
	keys := []string{"a", "b", "c"}
	for i, k := range keys {
		var prev *string
		if i > 0 {
			prev = &keys[i-1]
		}
		var err error
		if items, err = appendKeyedMsg(items, prev, protocol.ObjectMsg{Key: k, Inner: unpackGSetDelta(0, 1)}, new(codec.Names)); err != nil {
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
}

// linkedFrames returns sharded frames with link headers over the given
// batch: numbered, acknowledging with ranges, both with a digest vector,
// an acknowledgement with no items, and one with an empty vector, which a
// store's vector never is and the unpacker refuses.
func linkedFrames(batch protocol.Msg) [][]byte {
	other := batchOf([]protocol.ObjectMsg{{Key: "p:1", Inner: protocol.NewDeltaMsg(crdt.NewGSet("c"))}})
	items := []protocol.ShardItem{{Shard: 2, Msg: batch}, {Shard: 0, Msg: other}}
	seq := protocol.FrameSeq{Seq: 300, Back: 2}
	ack := protocol.FrameAck{Inc: 0x01020304, Cum: 127, Ranges: []protocol.SeqRange{{Lo: 129, Hi: 129}, {Lo: 140, Hi: 1 << 40}}}
	return [][]byte{
		packFrame(items, nil, protocol.LinkHeader{Seq: seq}),
		packFrame(items, nil, protocol.LinkHeader{Seq: seq, Ack: ack}),
		packFrame(items, []uint64{7, ^uint64(0)}, protocol.LinkHeader{Seq: seq, Ack: ack}),
		packFrame(nil, nil, protocol.LinkHeader{Ack: protocol.FrameAck{Inc: 1, Cum: 0}}),
		packFrame(nil, []uint64{}, protocol.LinkHeader{Ack: ack}),
	}
}

// linkShapes returns one sharded frame over batch for each of the ten
// shapes of link header, and so for each tag of the link block that is
// not refused: a sequence number, an acknowledgement, with and without
// ranges, or both; each with and without a digest vector.
func linkShapes(batch protocol.Msg) [][]byte {
	items := []protocol.ShardItem{{Shard: 1, Msg: batch}}
	seq := protocol.FrameSeq{Seq: 41, Back: 3}
	bare := protocol.FrameAck{Inc: 0x0a0b0c0d, Cum: 40}
	ranged := protocol.FrameAck{Inc: 0x0a0b0c0d, Cum: 40, Ranges: []protocol.SeqRange{{Lo: 43, Hi: 44}}}
	var out [][]byte
	for _, link := range []protocol.LinkHeader{
		{Seq: seq}, {Ack: bare}, {Ack: ranged}, {Seq: seq, Ack: bare}, {Seq: seq, Ack: ranged},
	} {
		out = append(out, packFrame(items, nil, link), packFrame(items, []uint64{5}, link))
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

// FuzzUnpackFrame holds the unpacker to the canonical-form rule: on any
// input UnpackFrame must never panic, a frame it refuses leaves the view
// empty, and a frame it accepts re-packs through the packer's own append
// functions (repack) to exactly its bytes — still so after the buffer is
// overwritten (alias safety: payloads index the input buffer, keys are
// rebuilt into the view, decodes copy out of it). It unpacks for 128
// shards, so that every one-byte shard index routes; a frame that names a
// shard beyond them drops the item, and is checked for no panic alone.
func FuzzUnpackFrame(f *testing.F) {
	seed := func(m protocol.Msg) {
		if d, err := codec.EncodeMsg(m); err == nil {
			f.Add(d)
		}
	}
	plain := protocol.LinkHeader{}
	batch := batchOf([]protocol.ObjectMsg{
		{Key: "obj:1", Inner: protocol.NewDeltaMsg(crdt.NewGSet("a"))},
		{Key: "obj:2", Inner: protocol.NewAckedDeltaMsg(crdt.NewGSet("b"), []uint64{3})},
	})
	f.Add(packFrame([]protocol.ShardItem{
		{Shard: 0, Msg: batch},
		{Shard: 7, Msg: protocol.NewDeltaMsg(crdt.NewGSet("q"))},
	}, nil, plain))
	// A retired tag (a per-object acknowledgement) behind an item that
	// unpacks, and in an item alone: refused, not skipped.
	f.Add([]byte{72, 1, 2, 0, 65, 7, 1, 1, 97, 0, 67, 1, 9})
	f.Add([]byte{72, 1, 1, 7, 67, 1, 9})
	f.Add(packFrame([]protocol.ShardItem{
		{Shard: 3, Msg: protocol.NewDeltaMsg(crdt.NewGSet("p"))},
		{Shard: 1, Msg: batch}, // out of shard order: counting-sort path
	}, []uint64{0, ^uint64(0), 0xabcdef}, plain))
	seed(protocol.NewDigestMsg([]uint64{0, ^uint64(0)}))
	// Standalone hash pushes (not sharded), and a drill's close the way it
	// travels — the last item of its shard in a sharded frame, after the
	// states it goes with.
	seed(protocol.NewTreeMsg(2, 0, []uint32{0}, pushHashes(1)))
	seed(protocol.NewTreeMsg(0, 2, []uint32{9, 15}, pushHashes(2)))
	f.Add(packFrame([]protocol.ShardItem{
		{Shard: 1, Msg: batch},
		{Shard: 1, Msg: protocol.NewTreeMsg(1, protocol.TreeDepth, []uint32{5}, nil)},
	}, nil, plain))
	f.Add([]byte{72, 2, 1})                   // sharded, 2 items, truncated
	f.Add([]byte{74, 255, 255, 255, 255, 15}) // sharded+digest, hostile count
	f.Add([]byte{72, 1, 1, 3, 70, 1, 1, 97, 64, 1})
	f.Add([]byte{72, 1, 1, 2, 75, 0, 2, 1, 1, 2, 1, 2, 3}) // embedded tree push, truncated hashes
	// The linked variant: numbered, acknowledging with ranges, both with a
	// digest vector, an acknowledgement with no items, and hostile headers.
	for _, data := range linkedFrames(batch) {
		f.Add(data)
	}
	f.Add([]byte{88, 0, 0, 0, 9, 4, 255, 255, 255, 255, 15}) // hostile range count
	f.Add([]byte{79, 3, 3, 0})                               // back reaches the number
	f.Add([]byte{76, 4, 0, 0})                               // the retired flag-byte form
	f.Add([]byte{80, 0, 0, 0, 0, 1, 0})                      // zero incarnation
	// A hello standalone (not sharded), and as an item, whole and with a
	// hostile id count.
	seed(protocol.NewHelloMsg(protocol.WireVersion, 4, 7, []string{"s-01"}))
	f.Add(packFrame([]protocol.ShardItem{{Shard: 1, Msg: protocol.NewHelloMsg(protocol.WireVersion, 4, 7, []string{"s-01", "s-02"})}}, nil, plain))
	f.Add([]byte{72, 1, 1, 1, 77, 2, 4, 0, 0, 0, 7, 255, 255, 255, 255, 15, 1, 97})
	// Every tag of the link block: each shape of link header, and the
	// values that name none.
	for _, data := range linkShapes(batch) {
		f.Add(data)
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
	f.Add(packFrame([]protocol.ShardItem{{Shard: 2, Msg: benchKeyBatch()}}, nil, protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: 1}}))
	// A bulk-acked frame's run, its keys from six shards in one chain,
	// plainly and numbered, and every spelling of a run that is refused.
	f.Add(packFrame(benchFrameItems(), nil, plain))
	f.Add(packFrame(benchFrameItems(), nil, protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: 9, Back: 1}}))
	for _, data := range sortedValues(refusedRuns()) {
		f.Add(data)
	}
	// A bench-shaped run from three writers, plainly and numbered: names
	// spelled and referred to, short forms and long; and every spelling of
	// a name or a lone irreducible that is refused.
	f.Add(packFrame(benchMixedItems(), nil, plain))
	f.Add(packFrame(benchMixedItems(), nil, protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: 4, Back: 2}}))
	for _, data := range sortedValues(refusedNames()) {
		f.Add(data)
	}
	// Every other spelling the packer cannot write: overlong uvarints,
	// bytes after the last item, the per-object acked form in the run,
	// lists out of order, a counter entry of 0, a flag byte past 1.
	for _, data := range sortedValues(nonCanonical()) {
		f.Add(data)
	}

	const shards = 128
	f.Fuzz(func(t *testing.T, data []byte) {
		// Work on a copy: the alias-safety check below clobbers the frame
		// buffer, and the fuzz engine owns data.
		buf := append([]byte(nil), data...)
		var v codec.FrameView
		if err := codec.UnpackFrame(buf, shards, &v); err != nil {
			// A pooled view never pins the decoded half of a refused frame.
			if v.NumItems() != 0 || len(v.Groups()) != 0 || len(v.Digests) != 0 || v.Dropped != 0 {
				t.Fatalf("rejected input left %d items in %d groups", v.NumItems(), len(v.Groups()))
			}
			return
		}
		flattenView(t, &v, shards)
		if v.Dropped > 0 {
			return // the view no longer holds the whole frame
		}
		if again := repack(&v); !bytes.Equal(again, data) {
			t.Fatalf("accepted frame %x re-packs as %x", data, again)
		}
		for i := range buf {
			buf[i] = 0xff
		}
		if again := repack(&v); !bytes.Equal(again, data) {
			t.Fatalf("accepted frame %x re-packs as %x after buffer reuse", data, again)
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
		items = append(items, protocol.ShardItem{Shard: uint32(sh), Msg: batchOf(oms)})
	}
	return packFrame(items, nil, protocol.LinkHeader{})
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
// δ-groups over 64 shard batches, ascending within each — counters, sets
// and map fields at the keys the benchmark draws, written by three
// replicas — so every key after a batch's first is written against the one
// before it, and every writer's name is spelled once and referred to after.
// It returns the frame, the allocations its items take to unpack each alone
// in a frame of its own, and how many of its items name a writer.
func bulkShapedFrame(t *testing.T) (frame []byte, aloneAllocs, named int) {
	t.Helper()
	const shards, items = 64, 600
	batches := make([][]protocol.ObjectMsg, shards)
	var v codec.FrameView
	for i := 0; i < items; i++ {
		writer := fmt.Sprintf("store-%02d", 1+i%3)
		key, inner := fmt.Sprintf("c/n%08d", i), protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta(writer, uint64(i+1)))
		switch i % 5 {
		case 1:
			key, inner = fmt.Sprintf("s/n%08d", i), protocol.NewDeltaMsg(crdt.NewGSet(fmt.Sprintf("e%03d", i%1000)))
		case 3:
			key = fmt.Sprintf("m/n%06d/f%02d", i/50, i%50)
			inner = protocol.NewDeltaMsg(lattice.NewMapEntry(key, &crdt.LWWRegister{TS: uint64(i + 1), Writer: writer, Val: fmt.Sprintf("v%d", i)}))
		}
		if i%5 != 1 {
			named++
		}
		om := protocol.ObjectMsg{Key: key, Inner: inner}
		alone := packFrame([]protocol.ShardItem{{Shard: 0, Msg: batchOf([]protocol.ObjectMsg{om})}}, nil, protocol.LinkHeader{})
		codec.UnpackFrame(alone, shards, &v)
		aloneAllocs += int(testing.AllocsPerRun(10, func() { codec.UnpackFrame(alone, shards, &v) }))
		batches[i%shards] = append(batches[i%shards], om)
	}
	var sis []protocol.ShardItem
	for s, b := range batches {
		slices.SortFunc(b, func(x, y protocol.ObjectMsg) int { return strings.Compare(x.Key, y.Key) })
		sis = append(sis, protocol.ShardItem{Shard: uint32(s), Msg: batchOf(b)})
	}
	return packFrame(sis, nil, protocol.LinkHeader{}), aloneAllocs, named
}

// TestUnpackKeysAllocateNothing: a warmed view rebuilds a bulk-shaped
// frame's keys into its own buffer and allocates nothing for them, and
// allocates each of the frame's three writers' names once, not once for
// every counter and field that names one — an unpack allocates what its
// items take to unpack alone, less a name for each item that names a
// writer, plus the three. Reset keeps the key buffer for the next frame,
// and drops one grown past what a pooled view may retain.
func TestUnpackKeysAllocateNothing(t *testing.T) {
	const writers = 3
	frame, aloneAllocs, named := bulkShapedFrame(t)
	var v codec.FrameView
	if err := codec.UnpackFrame(frame, 64, &v); err != nil || v.NumItems() != 600 {
		t.Fatalf("unpacked %d items: %v", v.NumItems(), err)
	}
	got := testing.AllocsPerRun(20, func() { codec.UnpackFrame(frame, 64, &v) })
	if want := aloneAllocs - named + writers; int(got) != want {
		t.Errorf("a warmed view unpacks 600 items in %v allocations, want %d: the items' %d alone, less %d names, plus %d", got, want, aloneAllocs, named, writers)
	}
	t.Logf("600 items, %d naming one of %d writers: %.2f allocations an item, %.2f each alone", named, writers, got/600, float64(aloneAllocs)/600)
	v.Reset()
	if codec.KeyBufferCap(&v) == 0 {
		t.Error("Reset dropped a bulk frame's key buffer")
	}
	long := make([]protocol.ObjectMsg, 0, 3000)
	for i := 0; i < cap(long); i++ {
		long = append(long, protocol.ObjectMsg{Key: fmt.Sprintf("%040d", i), Inner: protocol.NewDeltaMsg(crdt.NewGSet("e"))})
	}
	if err := codec.UnpackFrame(packFrame([]protocol.ShardItem{{Shard: 0, Msg: batchOf(long)}}, nil, protocol.LinkHeader{}), 64, &v); err != nil {
		t.Fatal(err)
	}
	if codec.KeyBufferCap(&v) <= codec.MaxRetainedKeyBytes {
		t.Fatalf("3 000 keys of 40 bytes fit a buffer of %d", codec.KeyBufferCap(&v))
	}
	if v.Reset(); codec.KeyBufferCap(&v) != 0 {
		t.Errorf("Reset kept a key buffer of %d bytes, past the %d a pooled view retains", codec.KeyBufferCap(&v), codec.MaxRetainedKeyBytes)
	}
}

// TestReplicaNamesBounded: a frame whose 10 000 counters all name one
// writer, whose name is 60 KiB long, spells the name once and refers to it
// 9 999 times, and unpacks to states that share one copy of it — a string
// of its own, not a substring of the frame, which would pin the frame —
// and re-pack to the same bytes. A warmed view allocates no more for the
// name than twice the bytes it adds to the frame, where a copy per
// reference would be 600 MB: the unpack allocates at most that much more
// than for the same frame under a one-byte name.
func TestReplicaNamesBounded(t *testing.T) {
	const items = 10000
	frameOf := func(writer string) []byte {
		oms := make([]protocol.ObjectMsg, items)
		for i := range oms {
			oms[i] = protocol.ObjectMsg{Key: fmt.Sprintf("k%05d", i), Inner: protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta(writer, uint64(1+i%100)))}
		}
		return packFrame([]protocol.ShardItem{{Shard: 0, Msg: batchOf(oms)}}, nil, protocol.LinkHeader{})
	}
	long := strings.Repeat("w", 60<<10)
	data, short := frameOf(long), frameOf("w")
	if len(data) > len(short)+len(long)+8 {
		t.Fatalf("a %d-byte name makes the frame %d bytes longer, want it spelled once", len(long), len(data)-len(short))
	}
	lo, hi := uintptr(unsafe.Pointer(&data[0])), uintptr(unsafe.Pointer(&data[len(data)-1]))
	var shared *byte
	check := func(how string, m protocol.Msg) {
		m.(*protocol.DeltaMsg).Delta.(*crdt.GCounter).Range(func(id string, _ uint64) bool {
			p := unsafe.StringData(id)
			if id != long || uintptr(unsafe.Pointer(p)) >= lo && uintptr(unsafe.Pointer(p)) <= hi {
				t.Fatalf("%s: a counter names a writer of %d bytes in the frame's buffer: %v", how, len(id), id == long)
			}
			if shared == nil {
				shared = p
			} else if p != shared {
				t.Fatalf("%s: two counters hold two copies of the name", how)
			}
			return true
		})
	}
	var v codec.FrameView
	if err := codec.UnpackFrame(data, 4, &v); err != nil || v.NumItems() != items {
		t.Fatalf("unpacked %d items: %v", v.NumItems(), err)
	}
	for _, g := range v.Groups() {
		for i := range g.Items {
			m, _ := g.Items[i].Msg()
			check("UnpackFrame", m)
		}
	}
	if again := repack(&v); !bytes.Equal(again, data) {
		t.Fatal("the frame does not re-pack to its bytes")
	}
	allocated := func(frame []byte) uint64 {
		var v codec.FrameView
		codec.UnpackFrame(frame, 4, &v)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 10
		for i := 0; i < runs; i++ {
			codec.UnpackFrame(frame, 4, &v)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	withLong, withShort := allocated(data), allocated(short)
	if grown := uint64(len(data) - len(short)); withLong > withShort+2*grown {
		t.Fatalf("a name that adds %d bytes to the frame adds %d to what unpacking it allocates", grown, withLong-withShort)
	}
	t.Logf("%d-byte frame: %d bytes allocated per unpack, %d under a one-byte name (a %d-byte frame)", len(data), withLong, withShort, len(short))
}

// smallUnpackTimes returns, for each of views, the best time of one unpack
// of small into it over five rounds. Every round times each view in turn,
// so that all of them run under the same load: a machine busy during one
// view's rounds alone would make it look slow.
func smallUnpackTimes(t testing.TB, views []*codec.FrameView, small []byte, shards int) []time.Duration {
	t.Helper()
	const rounds = 2000
	best := make([]time.Duration, len(views))
	for i := range best {
		best[i] = time.Duration(1 << 62)
	}
	for rep := 0; rep < 5; rep++ {
		for i, v := range views {
			start := time.Now()
			for r := 0; r < rounds; r++ {
				if err := codec.UnpackFrame(small, shards, v); err != nil {
					t.Fatalf("UnpackFrame: %v", err)
				}
			}
			best[i] = min(best[i], time.Since(start)/rounds)
		}
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
	views := []*codec.FrameView{&fresh, &used, &reset}
	times := smallUnpackTimes(t, views, small, shards)
	base := times[0]
	for i, name := range []string{"reused", "reset"} {
		got := times[i+1]
		t.Logf("10-item frame: %v into a fresh view, %v into a %s one", base, got, name)
		if got > 2*base {
			t.Errorf("10-item frame takes %v to unpack into a view %s after a 20k-item frame, %v into a fresh one", got, name, base)
		}
		checkUnpacked(t, small, shards, views[i+1])
	}
}
