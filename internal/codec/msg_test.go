package codec_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
)

// msgRoundTrip encodes and decodes a message, checking that the decoder
// rebuilds the sender's accounting from the content.
func msgRoundTrip(t *testing.T, m protocol.Msg) protocol.Msg {
	t.Helper()
	data, err := codec.EncodeMsg(m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	got, n, err := codec.DecodeMsg(data)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	if n != len(data) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(data))
	}
	if got.Kind() != m.Kind() {
		t.Fatalf("kind = %q, want %q", got.Kind(), m.Kind())
	}
	if got.Cost() != m.Cost() {
		t.Fatalf("cost = %+v, want %+v", got.Cost(), m.Cost())
	}
	return got
}

func TestDeltaMsgRoundTrip(t *testing.T) {
	m := protocol.NewDeltaMsg(crdt.NewGSet("d"))
	got := msgRoundTrip(t, m).(*protocol.DeltaMsg)
	if !got.Delta.Equal(m.Delta) {
		t.Error("delta payload mismatch")
	}
}

// retiredMsgs are the messages whose wire form is gone — those of the
// engines that run under internal/netsim only, and the per-object
// acknowledgement the link header replaced — each with the bytes it used
// to encode to. Only the acknowledgement is still a type of package
// protocol; the others stand in as a test-local Msg of the same kind.
type retiredMsg struct {
	msg  protocol.Msg
	wire []byte
}

// unwritable is a message with no wire form, named by its kind.
type unwritable string

func (m unwritable) Kind() string             { return string(m) }
func (unwritable) Cost() metrics.Transmission { return metrics.Transmission{Messages: 1} }

func retiredMsgs() []retiredMsg {
	return []retiredMsg{
		{unwritable("state"), []byte{64, 7, 2, 1, 'a', 1, 'b'}},
		{unwritable("ack"), []byte{67, 1, 7}},
		{unwritable("sb-digest"), []byte{68, 1, 3, 'n', '0', '0', 4, 0}},
		{unwritable("sb-deltas"), []byte{69, 1, 3, 'n', '0', '0', 3, 7, 1, 1, 'p'}},
		{unwritable("ops"), []byte{70, 1, 3, 'n', '0', '0', 3, 1, 3, 'n', '0', '0', 2, 7, 7, 1, 1, 'e'}},
	}
}

// TestAckedDeltaAndAckRoundTrip: the acked engine's δ-group keeps its
// encoding with the entry seqs spelled out as a bare message; the
// acknowledgement it used to be answered with, like every retired message,
// has none — EncodeMsg refuses the message and the decoders refuse its tag
// as unknown, bare, as a frame's bare item and as the message of a keyed
// item in its run, never skipping it.
func TestAckedDeltaAndAckRoundTrip(t *testing.T) {
	m := protocol.NewAckedDeltaMsg(crdt.NewGSet("x"), []uint64{3, 9, 12})
	got := msgRoundTrip(t, m).(*protocol.AckedDeltaMsg)
	if len(got.Seqs) != 3 || got.Seqs[2] != 12 {
		t.Errorf("seqs = %v", got.Seqs)
	}
	var v codec.FrameView
	for _, r := range retiredMsgs() {
		kind := r.msg.Kind()
		if _, err := codec.EncodeMsg(r.msg); err == nil {
			t.Errorf("%s: encoded a message without a wire form", kind)
		}
		if _, err := codec.EncodeMsg(batchOf([]protocol.ObjectMsg{{Key: "k", Inner: r.msg}})); err == nil {
			t.Errorf("%s: encoded as a keyed item", kind)
		}
		if _, _, err := codec.DecodeMsg(r.wire); !errors.Is(err, codec.ErrUnknownTag) {
			t.Errorf("%s bare: DecodeMsg error %v, want ErrUnknownTag", kind, err)
		}
		for name, data := range map[string][]byte{
			"as a bare item":   append([]byte{72, 1, 1, 0}, r.wire...),
			"in a frame's run": append([]byte{72, 2, 1, 'k'}, r.wire...),
		} {
			if err := codec.UnpackFrame(data, 4, &v); !errors.Is(err, codec.ErrUnknownTag) {
				t.Errorf("%s %s: UnpackFrame error %v, want ErrUnknownTag", kind, name, err)
			}
		}
	}
}

// TestBatchMsgRoundTrip: a standalone batch is write-only. It encodes —
// its tag, its count and its items as a run, a δ-group as a frame's run
// writes it, an AckedDeltaMsg under its tag and seqs — and no decoder
// reads it: its tag is unknown to DecodeMsg, and as a frame's bare item.
func TestBatchMsgRoundTrip(t *testing.T) {
	d := protocol.ObjectMsg{Key: "obj1", Inner: protocol.NewDeltaMsg(crdt.NewGSet("a"))}
	acked := protocol.ObjectMsg{Key: "obj2", Inner: protocol.NewAckedDeltaMsg(crdt.NewGCounter(), []uint64{1})}
	data := encodeMsg(t, batchOf([]protocol.ObjectMsg{d, acked}))
	first, err := appendKeyedMsg(nil, nil, d, new(codec.Names))
	if err != nil {
		t.Fatal(err)
	}
	ackedBytes := append([]byte{3, 1, '2'}, encodeMsg(t, acked.Inner)...) // "obj" shared
	if want := append(append([]byte{71, 2}, first...), ackedBytes...); !bytes.Equal(data, want) {
		t.Fatalf("batch %x, want %x", data, want)
	}
	if _, _, err := codec.DecodeMsg(data); !errors.Is(err, codec.ErrUnknownTag) {
		t.Errorf("DecodeMsg error %v, want ErrUnknownTag", err)
	}
}

func TestShardedMsgRoundTrip(t *testing.T) {
	batch := batchOf([]protocol.ObjectMsg{
		{Key: "user:1", Inner: protocol.NewDeltaMsg(crdt.NewGSet("a"))},
		{Key: "user:2", Inner: protocol.NewDeltaMsg(crdt.NewGSet("b"))},
	})
	items := []protocol.ShardItem{
		{Shard: 0, Msg: batch},
		{Shard: 13, Msg: protocol.NewDeltaMsg(crdt.NewGSet("c"))},
	}
	var v codec.FrameView
	checkUnpacked(t, packFrame(items, nil, protocol.LinkHeader{}), 16, &v)
	got := codec.FrameItems(&v)
	if len(got) != 3 || string(got[0].Key) != "user:1" || string(got[1].Key) != "user:2" {
		t.Fatalf("unpacked %d items, the run %q %q", len(got), got[0].Key, got[1].Key)
	}
	if m, _ := got[2].Msg(); got[2].Key != nil || got[2].Shard != 13 || m.Kind() != "delta" {
		t.Fatalf("bare item %+v", got[2])
	}
	// A batch is keyed items: as a bare item it is refused.
	bare, _ := codec.AppendShardItem([]byte{72, 1, 1}, items[0])
	if err := codec.UnpackFrame(bare, 16, &v); !errors.Is(err, codec.ErrUnknownTag) {
		t.Errorf("a batch unpacked as a bare item: %v", err)
	}
}

// TestShardedMsgKeysAscend: a frame's run names each key once, in
// ascending order. The packer sorts the batches' items into one run (and
// joins the δ-groups of a key two batches name); the encoder refuses a
// run that names a key twice, or out of order.
func TestShardedMsgKeysAscend(t *testing.T) {
	delta := protocol.NewDeltaMsg(crdt.NewGSet("a"))
	batch := func(keys ...string) *protocol.BatchMsg {
		var oms []protocol.ObjectMsg
		for _, k := range keys {
			oms = append(oms, protocol.ObjectMsg{Key: k, Inner: delta})
		}
		return batchOf(oms)
	}
	keysOf := func(items ...protocol.ShardItem) []codec.ItemView {
		var v codec.FrameView
		checkUnpacked(t, packFrame(items, nil, protocol.LinkHeader{}), 4, &v)
		return slices.Clone(codec.FrameItems(&v))
	}
	var keys []string
	for _, iv := range keysOf(protocol.ShardItem{Shard: 3, Msg: batch("c", "e")}, protocol.ShardItem{Shard: 1, Msg: batch("a", "d")}) {
		keys = append(keys, string(iv.Key))
	}
	if !slices.Equal(keys, []string{"a", "c", "d", "e"}) {
		t.Errorf("run %q, want a c d e", keys)
	}
	for _, run := range [][]string{{"a", "a"}, {"b", "a"}, {"ab", "a"}} {
		var nt codec.Names
		first, _ := appendKeyedMsg(nil, nil, protocol.ObjectMsg{Key: run[0], Inner: delta}, &nt)
		if _, err := appendKeyedMsg(first, &run[0], protocol.ObjectMsg{Key: run[1], Inner: delta}, &nt); err == nil {
			t.Errorf("encoded the run %q", run)
		}
		if _, err := codec.EncodeMsg(batch(run...)); err == nil {
			t.Errorf("encoded the batch %q", run)
		}
	}
}

func TestShardedDigestMsgRoundTrip(t *testing.T) {
	items := []protocol.ShardItem{
		{Shard: 2, Msg: protocol.NewDeltaMsg(crdt.NewGSet("a"))},
	}
	vec := []uint64{7, 0, ^uint64(0), 0xfeedface}
	carrying := packFrame(items, vec, protocol.LinkHeader{})
	var v codec.FrameView
	checkUnpacked(t, carrying, 4, &v)
	if v.NumItems() != 1 || v.Groups()[0].Shard != 2 {
		t.Fatalf("items = %+v", v.Groups())
	}
	if !slices.Equal(v.Digests, vec) {
		t.Errorf("digests = %v", v.Digests)
	}
	// The plain and digest-carrying variants use distinct wire tags, and a
	// store's vector has a word per shard: the carrying tag with no words
	// is a second spelling of the plain frame, and refused.
	plain := packFrame(items, nil, protocol.LinkHeader{})
	if plain[0] == carrying[0] {
		t.Error("digest-carrying encoding shares the plain tag")
	}
	checkUnpacked(t, plain, 4, &v)
	if len(v.Digests) != 0 {
		t.Errorf("a plain frame after a carrying one unpacked digests %v", v.Digests)
	}
	if err := codec.UnpackFrame(packFrame(items, []uint64{}, protocol.LinkHeader{}), 4, &v); err == nil {
		t.Error("unpacked a digest vector of no words")
	}
}

func TestShardedDigestMsgHostileCount(t *testing.T) {
	// The piggybacked vector's count is bounds-checked against the actual
	// remaining bytes before allocating, like DigestMsg's.
	header := []byte{74} // tagShardedDigestMsg
	var v codec.FrameView
	for _, count := range []uint64{1 << 60, 3} {
		data := binary.AppendUvarint(append([]byte{}, header...), count)
		data = append(data, make([]byte, 16)...) // room for only 2 digests
		if err := codec.UnpackFrame(data, 4, &v); err == nil {
			t.Errorf("digest count %d over 16 payload bytes should fail", count)
		}
	}
}

// TestShardedMsgCostAggregation: a frame's accounting is its items'
// shares summed — a bare item's the inner message's and 4 bytes of shard
// index, a keyed item's the inner message's elements and payload and its
// key as metadata — under the one message the frame is on the wire.
func TestShardedMsgCostAggregation(t *testing.T) {
	inner := protocol.NewDeltaMsg(crdt.NewGSet("x", "y"))
	c := protocol.BareCost(protocol.ShardItem{Shard: 3, Msg: inner})
	if c.Messages != 0 {
		t.Errorf("messages = %d, want 0 (the frame is the message)", c.Messages)
	}
	if ic := inner.Cost(); c.Elements != 2 || c.Elements != ic.Elements || c.PayloadBytes != ic.PayloadBytes {
		t.Errorf("payload accounting = %+v, want inner sums %+v", c, ic)
	}
	if c.MetadataBytes != 8+4 {
		t.Errorf("metadata = %d, want inner 8 + 4 routing bytes", c.MetadataBytes)
	}
}

func TestDigestMsgRoundTrip(t *testing.T) {
	vec := []uint64{0, 1, ^uint64(0), 0xdeadbeefcafe}
	m := protocol.NewDigestMsg(vec)
	got := msgRoundTrip(t, m).(*protocol.DigestMsg)
	if len(got.Digests) != 4 || got.Digests[2] != ^uint64(0) || got.Digests[3] != 0xdeadbeefcafe {
		t.Errorf("digests = %v", got.Digests)
	}
	// The advertisement's bytes are what they were when the message could
	// also carry shard requests: tag, count, the words, an empty list.
	data, _ := codec.EncodeMsg(protocol.NewDigestMsg([]uint64{1}))
	if want := []byte{73, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0}; !bytes.Equal(data, want) {
		t.Errorf("advertisement encodes as %v, want %v", data, want)
	}
}

// TestHelloMsgRoundTrip: the announcement survives the wire with its
// accounting, and the advertisement that asks for one back is the plain
// one under the next tag.
func TestHelloMsgRoundTrip(t *testing.T) {
	m := protocol.NewHelloMsg(protocol.WireVersion, 64, 0xa1b2c3d4, []string{"s-01", "s-02"})
	got := msgRoundTrip(t, m).(*protocol.HelloMsg)
	if got.Version != protocol.WireVersion || got.Shards != 64 || got.Inc != 0xa1b2c3d4 || !slices.Equal(got.Reaches, m.Reaches) {
		t.Errorf("hello = %+v", got)
	}
	if c := got.Cost(); c.Messages != 1 || c.MetadataBytes != 12+8 || c.Elements != 0 {
		t.Errorf("hello cost = %+v, want 20 bytes of metadata", c)
	}
	if got := msgRoundTrip(t, protocol.NewHelloMsg(protocol.WireVersion, 1, 1, nil)).(*protocol.HelloMsg); len(got.Reaches) != 0 {
		t.Errorf("a hello reaching nobody came back reaching %v", got.Reaches)
	}
	// A version 1 hello has no incarnation, and decodes as one that has
	// none, for its receiver to refuse by its version.
	old := msgRoundTrip(t, protocol.NewHelloMsg(1, 64, 0, []string{"s-01"})).(*protocol.HelloMsg)
	if data, _ := codec.EncodeMsg(old); old.Version != 1 || old.Inc != 0 || !bytes.Equal(data, []byte{77, 1, 64, 1, 4, 's', '-', '0', '1'}) {
		t.Errorf("version 1 hello = %+v, encoded %v", old, data)
	}
	ask := protocol.NewDigestMsg([]uint64{7})
	ask.Echo = true
	if got := msgRoundTrip(t, ask).(*protocol.DigestMsg); !got.Echo || got.Digests[0] != 7 {
		t.Errorf("asking advertisement = %+v", got)
	}
	if got := msgRoundTrip(t, protocol.NewDigestMsg([]uint64{7})).(*protocol.DigestMsg); got.Echo {
		t.Error("a plain advertisement came back asking")
	}
	plain, _ := codec.EncodeMsg(protocol.NewDigestMsg([]uint64{7}))
	asking, _ := codec.EncodeMsg(ask)
	if asking[0] == plain[0] || !bytes.Equal(asking[1:], plain[1:]) {
		t.Errorf("asking advertisement %v, plain %v: want the same body under another tag", asking, plain)
	}
}

// TestDecodeHelloHostileInput: counts are checked against the bytes that
// remain before anything is allocated for them, and a field beyond
// uint32 is rejected, never truncated into range.
func TestDecodeHelloHostileInput(t *testing.T) {
	header := []byte{77, 2, 4, 0, 0, 0, 9} // tagHelloMsg, version 2, 4 shards, incarnation 9
	for _, count := range []uint64{1 << 60, 3} {
		data := binary.AppendUvarint(append([]byte{}, header...), count)
		data = append(data, 1, 'a', 1, 'b') // two ids
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Errorf("%d ids over 4 bytes should fail", count)
		}
	}
	// An id longer than the bytes behind it.
	if _, _, err := codec.DecodeMsg(append(append([]byte{}, header...), 1, 200, 'a')); err == nil {
		t.Error("an id of 200 bytes in a 1-byte tail should fail")
	}
	for _, data := range [][]byte{
		binary.AppendUvarint([]byte{77}, 1<<32),    // version beyond uint32
		binary.AppendUvarint([]byte{77, 1}, 1<<40), // shard count beyond uint32
		{77}, {77, 2}, {77, 1, 4}, header, // truncated before the ids
		{77, 2, 4, 0, 0, 9},                                         // truncated incarnation
		{77, 2, 4, 0, 0, 0, 0, 0},                                   // zero incarnation
		append(append([]byte{}, header...), 2, 1, 'a'),              // the second id missing
		{72, 1, 1, 0, 77, 1, 4, 255, 255, 255, 255, 255, 255, 1, 0}, // nested in a sharded frame, hostile count
	} {
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Errorf("%v should fail decoding", data)
		}
	}
}

// pushHashes is the hashes of a push naming n nodes, all different.
func pushHashes(n int) []uint64 {
	h := make([]uint64, n*protocol.TreeFanout)
	for i := range h {
		h[i] = ^uint64(0) - uint64(i)
	}
	return h
}

func TestTreeMsgRoundTrip(t *testing.T) {
	// A hash push: each node followed by its children's hashes.
	hashes := pushHashes(2)
	p := protocol.NewTreeMsg(7, 2, []uint32{3, 255}, hashes)
	gotP := msgRoundTrip(t, p).(*protocol.TreeMsg)
	if gotP.Shard != 7 || gotP.Level != 2 {
		t.Errorf("shard/level = %d/%d", gotP.Shard, gotP.Level)
	}
	if !reflect.DeepEqual(gotP.Nodes, []uint32{3, 255}) || !reflect.DeepEqual(gotP.Hashes, hashes) {
		t.Errorf("push = %+v", gotP)
	}
	// The children of a node go as its index and TreeFanout 8-byte
	// hashes, not as TreeFanout (index, hash) pairs: tag, shard, level,
	// role, count, then 1 + 128 bytes per node below index 128.
	data, _ := codec.EncodeMsg(protocol.NewTreeMsg(7, 0, []uint32{0}, pushHashes(1)))
	if want := 5 + 1 + 8*protocol.TreeFanout; len(data) != want {
		t.Errorf("a one-node push takes %d bytes, want %d", len(data), want)
	}
	// The close that asks for ranges, at the leaf level and at the root,
	// and the one that ends a drill, naming nothing.
	for _, c := range []*protocol.TreeMsg{
		protocol.NewTreeMsg(4294967295, protocol.TreeDepth, []uint32{0, protocol.TreeLeaves - 1}, nil),
		protocol.NewTreeMsg(0, 0, []uint32{0}, nil),
		protocol.NewTreeMsg(3, 2, nil, nil),
	} {
		got := msgRoundTrip(t, c).(*protocol.TreeMsg)
		if got.Shard != c.Shard || got.Level != c.Level || len(got.Hashes) != 0 ||
			len(got.Nodes) != len(c.Nodes) || len(c.Nodes) > 0 && !reflect.DeepEqual(got.Nodes, c.Nodes) {
			t.Errorf("close %+v came back as %+v", c, got)
		}
	}
}

func TestEncodeTreeMsgMismatchedHashes(t *testing.T) {
	for _, m := range []*protocol.TreeMsg{
		protocol.NewTreeMsg(0, 1, []uint32{1, 2}, []uint64{9}),
		protocol.NewTreeMsg(0, 1, []uint32{1, 2}, pushHashes(1)),
		protocol.NewTreeMsg(0, 1, nil, pushHashes(1)),
	} {
		if _, err := codec.EncodeMsg(m); err == nil {
			t.Errorf("%d nodes with %d hashes should fail encoding", len(m.Nodes), len(m.Hashes))
		}
	}
}

func TestDecodeTreeHostileInput(t *testing.T) {
	const (
		closeRole = 0
		pushRole  = 1
	)
	header := []byte{75, 0} // tagTreeMsg, shard 0
	// A level outside the tree bounds no node index and must fail; a push
	// carries hashes one level down, so its range ends a level earlier.
	for _, c := range []struct{ level, role byte }{
		{protocol.TreeDepth + 1, closeRole}, {255, closeRole}, {protocol.TreeDepth, pushRole},
	} {
		data := append(append([]byte{}, header...), c.level, c.role, 0)
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Errorf("level %d in role %d should fail decoding", c.level, c.role)
		}
	}
	// There are two roles.
	if _, _, err := codec.DecodeMsg(append(append([]byte{}, header...), 1, 2, 0)); err == nil {
		t.Error("an unknown role should fail decoding")
	}
	// A push has something to compare.
	if _, _, err := codec.DecodeMsg(append(append([]byte{}, header...), 1, pushRole, 0)); err == nil {
		t.Error("a push without nodes should fail decoding")
	}
	// A node index at the level's node count must be rejected, not
	// passed through to alias another node.
	data := append(append([]byte{}, header...), 1, closeRole) // level 1: 16 nodes
	data = binary.AppendUvarint(data, 1)                      // one node
	data = binary.AppendUvarint(data, 16)                     // == TreeNodesAt(1)
	if _, _, err := codec.DecodeMsg(data); err == nil {
		t.Error("out-of-range node index should fail decoding")
	}
	// A node count promising far more than the payload holds must fail
	// before allocating, in either role.
	for _, role := range []byte{closeRole, pushRole} {
		data = append(append([]byte{}, header...), 2, role)
		data = binary.AppendUvarint(data, 1<<50)
		data = append(data, make([]byte, 300)...)
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Errorf("hostile node count in role %d should fail decoding", role)
		}
	}
	// A node whose hashes are truncated must fail.
	data = append(append([]byte{}, header...), 2, pushRole)
	data = binary.AppendUvarint(data, 1)                          // one node
	data = binary.AppendUvarint(data, 2)                          // its index
	data = append(data, make([]byte, 8*protocol.TreeFanout-1)...) // one byte short
	if _, _, err := codec.DecodeMsg(data); err == nil {
		t.Error("truncated child hashes should fail decoding")
	}
	// A shard index beyond uint32 must be rejected, as everywhere else.
	data = []byte{75}
	data = binary.AppendUvarint(data, uint64(1)<<35)
	data = append(data, 1, 0, 0)
	if _, _, err := codec.DecodeMsg(data); err == nil {
		t.Error("out-of-range shard index should fail decoding")
	}
	// Truncated before the level and role bytes.
	for _, data := range [][]byte{{75, 0}, {75, 0, 1}} {
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Error("message truncated at level should fail decoding")
		}
	}
}

func TestDecodeDigestHostileInput(t *testing.T) {
	header := []byte{73} // tagDigestMsg
	// A count promising 2^60 digests in a few bytes must fail before
	// allocating, as must one barely above the actual payload.
	for _, count := range []uint64{1 << 60, 3} {
		data := binary.AppendUvarint(append([]byte{}, header...), count)
		data = append(data, make([]byte, 16)...) // room for only 2 digests
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Errorf("count %d over 16 payload bytes should fail", count)
		}
	}
	// The shard-request list that used to follow the digests is gone: one
	// that is not empty must be rejected, not skipped.
	data := append(append([]byte{}, header...), 0) // no digests
	data = binary.AppendUvarint(data, 1)           // one shard request
	data = binary.AppendUvarint(data, 4)
	if _, _, err := codec.DecodeMsg(data); err == nil {
		t.Error("a digest message with shard requests should fail decoding")
	}
	// Truncated before the (empty) list.
	if _, _, err := codec.DecodeMsg(append(append([]byte{}, header...), 0)); err == nil {
		t.Error("a digest message without its trailing list should fail decoding")
	}
}

func TestDecodeShardIndexOutOfRange(t *testing.T) {
	// A shard index beyond uint32 must be rejected, not truncated into
	// the valid range where it would bypass the receiver's bounds check.
	msg := []byte{72, 1, 1}                        // sharded, 1 bare item
	msg = binary.AppendUvarint(msg, uint64(1)<<33) // hostile shard index
	inner, _ := codec.EncodeMsg(protocol.NewDeltaMsg(crdt.NewGSet("a")))
	msg = append(msg, inner...)
	if err := codec.UnpackFrame(msg, 4, new(codec.FrameView)); err == nil {
		t.Error("out-of-range shard index should fail decoding")
	}
}

func TestDecodeHostileNestingDoesNotPanic(t *testing.T) {
	// No message holds another: a frame as a frame's bare item is refused
	// at once, however deep the chain behind it, and a chain of map
	// prefixes far past legitimate nesting fails with an error, not by
	// exhausting the stack.
	var msg []byte
	for i := 0; i < 1000; i++ {
		msg = append(msg, 72)   // tagShardedMsg
		msg = append(msg, 1, 1) // one bare item
		msg = append(msg, 0)    // shard 0
	}
	if err := codec.UnpackFrame(msg, 4, new(codec.FrameView)); !errors.Is(err, codec.ErrUnknownTag) {
		t.Errorf("a frame as a bare item: error %v, want ErrUnknownTag", err)
	}
	if _, _, err := codec.DecodeMsg(msg); !errors.Is(err, codec.ErrUnknownTag) {
		t.Errorf("a frame decoded as a message: error %v, want ErrUnknownTag", err)
	}
	var state []byte
	for i := 0; i < 1000; i++ {
		state = append(state, 4)    // tagMap
		state = append(state, 1, 0) // one entry, empty key
	}
	if _, _, err := codec.Decode(state); err == nil {
		t.Error("deeply nested map state should fail")
	}
}

func TestDecodeMsgErrors(t *testing.T) {
	if _, _, err := codec.DecodeMsg(nil); err == nil {
		t.Error("empty input should fail")
	}
	if _, _, err := codec.DecodeMsg([]byte{200, 0, 0, 0, 0}); err == nil {
		t.Error("unknown tag should fail")
	}
	data, _ := codec.EncodeMsg(protocol.NewDeltaMsg(crdt.NewGSet("abc")))
	if _, _, err := codec.DecodeMsg(data[:3]); err == nil {
		t.Error("truncated message should fail")
	}
}

func TestDecodeHostileCountDoesNotPanic(t *testing.T) {
	// A frame declaring an absurd element count (here 2^60 sharded items
	// in a few bytes) must fail with a decode error, not panic allocating
	// the claimed capacity. Exercise every counted message shape: a frame's
	// count is its run's, shifted, or with the low bit set, bare items'.
	hugeCount := binary.AppendUvarint(nil, 1<<60)
	if _, _, err := codec.DecodeMsg(append([]byte{66}, hugeCount...)); err == nil { // acked δ-group seqs
		t.Error("tag 66: hostile count should fail")
	}
	for _, data := range [][]byte{
		append([]byte{72}, hugeCount...),    // sharded, a run
		append([]byte{72, 1}, hugeCount...), // sharded, bare items
	} {
		if err := codec.UnpackFrame(data, 4, new(codec.FrameView)); err == nil {
			t.Errorf("%x: hostile count should fail", data)
		}
	}
}

// TestShardedLinkRoundTrip: the linked header variants survive a
// pack and unpack with every combination of their fields, each under a
// tag of its own, their size is what ShardedHeaderSize says, and without
// a link header the bytes are those of the two plain variants. The
// sender's incarnation is not on the wire: it comes back zero.
func TestShardedLinkRoundTrip(t *testing.T) {
	items := []protocol.ShardItem{
		{Shard: 5, Msg: batchOf([]protocol.ObjectMsg{
			{Key: "k", Inner: protocol.NewDeltaMsg(crdt.NewGSet("a"))},
		})},
	}
	var v codec.FrameView
	seq := protocol.FrameSeq{Seq: 1 << 21, Back: 200}
	tags := make(map[byte]bool)
	for _, data := range linkShapes(items[0].Msg) {
		if tags[data[0]] || data[0] < 79 || data[0] > 93 {
			t.Errorf("a link header under tag %d, want its own in 79..93", data[0])
		}
		tags[data[0]] = true
		checkUnpacked(t, data, 8, &v)
	}
	checkUnpacked(t, packFrame(items, nil, protocol.LinkHeader{Seq: protocol.FrameSeq{Inc: 7, Seq: 1}}), 8, &v)
	if v.Link.Seq != (protocol.FrameSeq{Seq: 1}) {
		t.Errorf("sequence half came back %+v, want number 1 of no incarnation", v.Link.Seq)
	}
	ack := protocol.FrameAck{Inc: 9, Cum: 16383, Ranges: []protocol.SeqRange{{Lo: 16385, Hi: 16390}, {Lo: 16392, Hi: 16392}}}
	full := protocol.FrameAck{Inc: 9, Cum: 1} // as many ranges as an acknowledgement may carry
	for i := uint64(0); i < protocol.MaxAckRanges; i++ {
		full.Ranges = append(full.Ranges, protocol.SeqRange{Lo: 3 + 2*i, Hi: 3 + 2*i})
	}
	body := packFrame(items, nil, protocol.LinkHeader{})
	for _, c := range []struct {
		name    string
		link    protocol.LinkHeader
		digests []uint64
		items   []protocol.ShardItem
	}{
		{"seq", protocol.LinkHeader{Seq: seq}, nil, items},
		{"ack-full", protocol.LinkHeader{Ack: full}, nil, items},
		{"ack", protocol.LinkHeader{Ack: ack}, nil, items},
		{"ack-alone", protocol.LinkHeader{Ack: protocol.FrameAck{Inc: 9, Cum: 4}}, nil, nil},
		{"both", protocol.LinkHeader{Seq: seq, Ack: ack}, nil, items},
		{"both+digests", protocol.LinkHeader{Seq: seq, Ack: ack}, []uint64{1, ^uint64(0)}, items},
	} {
		data := packFrame(c.items, c.digests, c.link)
		checkUnpacked(t, data, 8, &v)
		if !reflect.DeepEqual(v.Link, c.link) || !slices.Equal(v.Digests, c.digests) || v.NumItems() != len(c.items) {
			t.Errorf("%s: unpacked link %+v digests %v items %d", c.name, v.Link, v.Digests, v.NumItems())
		}
		keyed, run := len(c.items), 0
		if keyed > 0 {
			run = len(body) - 2
		}
		if want := codec.ShardedHeaderSize(c.link, c.digests, keyed, 0) + run; len(data) != want {
			t.Errorf("%s: %d bytes, header size says %d", c.name, len(data), want)
		}
	}
	// No link header: the plain encodings, under their two tags.
	if body[0] != 72 {
		t.Errorf("an empty link header made the plain frame %x", body)
	}
	if withVec := packFrame(items, []uint64{3}, protocol.LinkHeader{}); withVec[0] != 74 {
		t.Errorf("an empty link header made the digest frame %x", withVec)
	}
}

// TestLinkItemsCarryNoSeqs: a frame is acknowledged as a whole, by the
// number in its header, so a keyed AckedDeltaMsg is the plain δ-group on
// the wire, numbered or not; a bare one keeps its seqs, which no record
// names.
func TestLinkItemsCarryNoSeqs(t *testing.T) {
	d := crdt.NewGSet("x", "y")
	b := protocol.ObjectMsg{Key: "b", Inner: protocol.NewDeltaMsg(crdt.NewGSet("z"))}
	acked := protocol.ShardItem{Shard: 3, Msg: batchOf([]protocol.ObjectMsg{
		{Key: "a", Inner: protocol.NewAckedDeltaMsg(d, []uint64{4, 5})}, b,
	})}
	plain := protocol.ShardItem{Shard: 3, Msg: batchOf([]protocol.ObjectMsg{
		{Key: "a", Inner: protocol.NewDeltaMsg(d)}, b,
	})}
	run := func(first protocol.ObjectMsg) []byte {
		var nt codec.Names
		out, err := appendKeyedMsg(nil, nil, first, &nt)
		if err != nil {
			t.Fatal(err)
		}
		out, _ = appendKeyedMsg(out, &first.Key, b, &nt)
		return out
	}
	got := run(acked.Msg.(*protocol.BatchMsg).Items[0])
	if want := run(plain.Msg.(*protocol.BatchMsg).Items[0]); !bytes.Equal(got, want) {
		t.Errorf("linked run %x, want the plain δ-groups %x", got, want)
	}
	whole := protocol.ShardItem{Shard: 3, Msg: protocol.NewAckedDeltaMsg(d, []uint64{4, 5})}
	wholeBytes, _ := codec.AppendShardItem(nil, whole)
	if !bytes.Contains(wholeBytes, []byte{66, 2, 4, 5}) {
		t.Errorf("a bare acked δ-group %x lost its seqs", wholeBytes)
	}
	var v codec.FrameView
	for _, link := range []protocol.LinkHeader{
		{Seq: protocol.FrameSeq{Seq: 2, Back: 1}},
		{Ack: protocol.FrameAck{Inc: 9, Cum: 2}},
	} {
		frame := packFrame([]protocol.ShardItem{acked, whole}, nil, link)
		if want := append(append(codec.AppendShardedHeader(nil, link, nil, 2, 1), got...), wholeBytes...); !bytes.Equal(frame, want) {
			t.Errorf("frame %x, want header, linked run and bare item %x", frame, want)
		}
		checkUnpacked(t, frame, 4, &v)
	}
}

// TestShardedLinkHostileHeaders: a link header that lies is rejected by
// the unpacker, a range count before anything is allocated for it.
func TestShardedLinkHostileHeaders(t *testing.T) {
	// The tags of the link block, by the fields they name.
	const (
		seq        = 79
		ack        = 80
		ackDigests = 84
		ackRanges  = 88
	)
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	inc := []byte{0, 0, 0, 9}
	cases := map[string][]byte{
		"retired flag-byte form": {76, 2, 0, 0, 0, 9, 1, 0, 0},
		"zero ack incarnation":   cat([]byte{ack, 0, 0, 0, 0}, uv(1), uv(0)),
		"zero sequence number":   cat([]byte{seq}, uv(0), uv(0), uv(0)),
		"back reaches number":    cat([]byte{seq}, uv(5), uv(5), uv(0)),
		"truncated sequence":     {seq},
		"truncated incarnation":  {ack, 0, 0},
		"ranges naming none":     cat([]byte{ackRanges}, inc, uv(1), uv(0), uv(0)),
		"hostile range count":    cat([]byte{ackRanges}, inc, uv(1), uv(1<<40), uv(0)),
		"range count over rest":  cat([]byte{ackRanges}, inc, uv(1), uv(3), uv(0), uv(0), uv(0)),
		"range count over cap":   cat([]byte{ackRanges}, inc, uv(1), uv(protocol.MaxAckRanges+1), bytes.Repeat([]byte{0}, 2*(protocol.MaxAckRanges+1)), uv(0)),
		"range overflows":        cat([]byte{ackRanges}, inc, uv(1<<63), uv(1), uv(1<<63), uv(0), uv(0)),
		"range span overflows":   cat([]byte{ackRanges}, inc, uv(1), uv(1), uv(0), uv(^uint64(0)), uv(0)),
		"hostile digest count":   cat([]byte{ackDigests}, inc, uv(1), uv(1<<40), uv(0)),
	}
	for i, data := range refusedLinkTags() {
		cases[fmt.Sprintf("tag %d naming no header (%d)", data[0], i)] = data
	}
	for name, data := range cases {
		var v codec.FrameView
		if err := codec.UnpackFrame(data, 4, &v); err == nil {
			t.Errorf("%s: unpacker accepted %x", name, data)
		}
	}
	// A header-sized frame claiming a billion ranges allocates nothing.
	hostile := cat([]byte{ackRanges}, inc, uv(1), uv(1<<30), uv(0))
	var v codec.FrameView
	if allocs := testing.AllocsPerRun(100, func() { codec.UnpackFrame(hostile, 4, &v) }); allocs != 0 {
		t.Errorf("rejecting a hostile range count allocates %.1f times", allocs)
	}
}

// lwwBytes is LWWRegister{TS: 1, Writer: "w", Val: "v"} encoded outside a
// keyed item, and keyedLWW inside one that has spelled no name before it:
// the writer spelled (1<<1) where lwwBytes gives its length.
var (
	lwwBytes = []byte{9, 1, 1, 'w', 1, 'v'}
	keyedLWW = []byte{9, 1, 2, 'w', 1, 'v'}
)

// keyedFrame is a plain sharded frame whose run is one keyed item under
// key "k" whose message is body.
func keyedFrame(body ...[]byte) []byte {
	data := []byte{72, 2, 1, 'k'}
	for _, b := range body {
		data = append(data, b...)
	}
	return data
}

// namedFrame is a plain sharded frame whose run is two keyed items, under
// "a" and "b", whose messages are first and second.
func namedFrame(first, second []byte) []byte {
	data := append([]byte{72, 4, 1, 'a'}, first...)
	data = append(data, 0, 1, 'b')
	return append(data, second...)
}

// keyedFrames returns one keyed item in each form it takes — a counter's
// and a set's δ-group, short and long, a map field's, maps that are no
// field of their key, and an acked δ-group — in a standalone batch, which
// no decoder reads, and in a frame, plainly and behind a link header; and
// by name every spelling of a map field that is refused: second spellings
// inside a keyed item, and tagKeyEntry anywhere else. refusedNames and
// nonCanonical have the rest.
func keyedFrames() (forms [][]byte, refused map[string][]byte) {
	field := lattice.NewMapEntry("m/a/f", &crdt.LWWRegister{TS: 1, Writer: "w", Val: "v"})
	own := lattice.NewMapEntry("m/b/f", &crdt.LWWRegister{TS: 1, Writer: "w", Val: "v"})
	two := lattice.NewMapEntry("m/c/f", lattice.NewMaxInt(3))
	two.Set("m/c/g", lattice.NewMaxInt(4))
	// Keys ascend; each after the first shares a prefix with the one
	// before, or none.
	batch := batchOf([]protocol.ObjectMsg{
		{Key: "c/a", Inner: protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta("w", 7))},
		{Key: "c/b", Inner: protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta("v", 1).Join(crdt.NewGCounter().IncDelta("w", 2)))},
		{Key: "m/a/e", Inner: protocol.NewDeltaMsg(lattice.NewMap())},
		{Key: "m/a/f", Inner: protocol.NewAckedDeltaMsg(field, []uint64{3})},
		{Key: "m/a/g", Inner: protocol.NewDeltaMsg(field)}, // another key's field
		{Key: "m/b/f", Inner: protocol.NewDeltaMsg(own)},
		{Key: "m/c/f", Inner: protocol.NewDeltaMsg(two)}, // two fields
		{Key: "s/a", Inner: protocol.NewDeltaMsg(crdt.NewGSet("e1", "e2"))},
		{Key: "s/b", Inner: protocol.NewDeltaMsg(crdt.NewGSet("e3"))},
	})
	data, err := codec.EncodeMsg(batch)
	if err != nil {
		panic(err)
	}
	items := []protocol.ShardItem{{Shard: 1, Msg: batch}}
	forms = [][]byte{
		data,
		packFrame(items, nil, protocol.LinkHeader{}),
		packFrame(items, nil, protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: 1}}),
	}
	refused = map[string][]byte{
		"a DeltaMsg's tag before a state":    keyedFrame([]byte{65, 7, 1, 1, 'a'}),
		"a map field in the long form":       keyedFrame([]byte{4, 1, 1, 'k'}, keyedLWW),
		"a map field of no value":            keyedFrame([]byte{11, 7, 0}),
		"a map field's value a map field":    keyedFrame([]byte{11, 11}, keyedLWW),
		"the short form as a map's value":    keyedFrame([]byte{4, 1, 1, 'j', 11}, keyedLWW),
		"the short form behind a DeltaMsg":   keyedFrame([]byte{65, 11}, lwwBytes),
		"the short form as a bare item":      append([]byte{72, 1, 1, 0, 11}, lwwBytes...),
		"the short form in a bare DeltaMsg":  append([]byte{72, 1, 1, 0, 65, 11}, lwwBytes...),
		"the short form in a standalone one": append([]byte{65, 11}, lwwBytes...),
		"a keyed item with no message":       {72, 2, 1, 'k'},
	}
	for name, follower := range map[string][]byte{
		"a shared length past the key before": {4, 1, 'b'},
		"a key written whole that shares 3":   {0, 4, 'k', 'a', 'a', 'b'},
		"a shared length below the least":     {2, 1, 'b'},
		"a shared length of one":              {1, 2, 'a', 'b'},
		"a key that repeats the one before":   {3, 0},
		"a follower's rest past the frame":    {3, 200, 'b'},
		"a key below the one before":          {0, 1, 'a'},
		"a key the one before extends":        {0, 2, 'k', 'a'},
	} {
		refused[name] = chainFrame("kaa", follower)
	}
	refused["a shared length short of the prefix"] = chainFrame("kaaa", []byte{3, 2, 'a', 'b'})
	long := strings.Repeat("k", 40)
	refused["a shared length past the cap"] = chainFrame(long, []byte{33, 7, 'k', 'k', 'k', 'k', 'k', 'k', 'b'})
	refused["a key that repeats a long one"] = chainFrame(long, append([]byte{32, 8}, long[:8]...))
	return forms, refused
}

// refusedNames returns, by name, keyed items both decoders refuse since
// wire version 6: a replica name referred to before it is spelled or
// spelled after, a lone irreducible in the long form, and the short forms
// outside a keyed item.
func refusedNames() map[string][]byte {
	return map[string][]byte{
		// Replica names: the first use spells, every later one refers back.
		"a name referred to before any is spelled": keyedFrame([]byte{12, 1, 7}),
		"a reference past the names spelled":       namedFrame([]byte{12, 2, 'w', 7}, []byte{12, 3, 8}),
		"a name spelled twice in a run":            namedFrame([]byte{12, 2, 'w', 7}, []byte{12, 2, 'w', 8}),
		"a name spelled twice in one counter":      keyedFrame([]byte{5, 2, 2, 'v', 1, 2, 'v', 2}),
		"a name spelled by a counter and a field":  namedFrame([]byte{12, 2, 'w', 7}, []byte{11, 9, 1, 2, 'w', 1, 'v'}),
		// A lone irreducible has one spelling in a keyed item, the short
		// form, and that form has none outside one.
		"a one-entry counter in the long form":       keyedFrame([]byte{5, 1, 2, 'w', 7}),
		"a one-element set in the long form":         keyedFrame([]byte{7, 1, 1, 'x'}),
		"a counter's short form of 0":                keyedFrame([]byte{12, 2, 'w', 0}),
		"a counter's short form in a standalone one": {65, 12, 1, 'w', 7},
		"a set's short form in a standalone one":     {65, 13, 1, 'x'},
		"a counter's short form as a bare item":      {72, 1, 1, 0, 12, 1, 'w', 7},
		"a set's short form in a bare DeltaMsg":      {72, 1, 1, 0, 65, 13, 1, 'x'},
		"a set's short form in the acked form":       keyedFrame([]byte{66, 1, 3, 13, 1, 'x'}),
	}
}

// nonCanonicalState is a state spelled another way than the encoder
// writes it, in the context-free encoding and as a keyed item's state,
// whose replica names a run spells (length<<1) or refers to (n<<1|1).
type nonCanonicalState struct{ free, keyed []byte }

// nonCanonicalStates returns, by name, states that spell a value another
// way than the encoder does: a uvarint in more bytes than it needs, a list
// out of order or naming a member twice, a counter entry of 0, a flag byte
// past 1, a map entry with no value.
func nonCanonicalStates() map[string]nonCanonicalState {
	same := func(b ...byte) nonCanonicalState { return nonCanonicalState{b, b} }
	return map[string]nonCanonicalState{
		"an overlong uvarint":                      same(1, 0x85, 0x00),
		"a set out of order":                       same(3, 2, 1, 'b', 1, 'a'),
		"a set naming a member twice":              same(7, 2, 4, '0', '0', '0', '0', 4, '0', '0', '0', '0'),
		"a two-phase set's tombstones in disorder": same(8, 1, 1, 'a', 2, 1, 'c', 1, 'b'),
		"a map's keys out of order":                same(4, 2, 1, 'b', 1, 5, 1, 'a', 1, 6),
		"a map entry with no value":                same(4, 1, 1, 'a', 3, 0),
		"a flag byte past 1":                       same(2, 2),
		"a counter's replicas out of order": {
			[]byte{5, 2, 1, 'w', 1, 1, 'v', 1},
			[]byte{5, 2, 2, 'w', 1, 2, 'v', 1}},
		"a counter entry of 0": {
			[]byte{5, 2, 1, 'v', 0, 1, 'w', 1},
			[]byte{5, 2, 2, 'v', 0, 2, 'w', 1}},
		"a PN-counter's replica twice": {
			[]byte{6, 2, 1, 'v', 1, 0, 1, 'v', 0, 1},
			[]byte{6, 2, 2, 'v', 1, 0, 1, 0, 1}},
		"a PN-counter entry of 0 both ways": {
			[]byte{6, 1, 1, 'v', 0, 0},
			[]byte{6, 1, 2, 'v', 0, 0}},
		"an AW-set's dots out of order": {
			[]byte{10, 2, 1, 'a', 1, 'w', 2, 1, 'b', 1, 'w', 1},
			[]byte{10, 2, 1, 'a', 2, 'w', 2, 1, 'b', 1, 1}},
		"an AW-set's dot live and a tombstone": {
			[]byte{10, 2, 0, 1, 'w', 1, 1, 'a', 1, 'w', 1},
			[]byte{10, 2, 0, 2, 'w', 1, 1, 'a', 1, 1}},
		"an AW-set's dot under two elements": {
			[]byte{10, 2, 1, 'a', 1, 'w', 1, 1, 'b', 1, 'w', 1},
			[]byte{10, 2, 1, 'a', 2, 'w', 1, 1, 'b', 1, 1}},
	}
}

// nonCanonical returns, by name, frames that spell their content another
// way than the packer writes it: each of nonCanonicalStates as a keyed
// item's state and in a bare δ-group, and an overlong count, an overlong
// key length, bytes after the last item and the per-object acked form in
// the run.
func nonCanonical() map[string][]byte {
	out := map[string][]byte{
		"an overlong frame count":            {72, 0x82, 0x00, 1, 'k', 13, 1, 'x'},
		"an overlong key length":             {72, 2, 0x81, 0x00, 'k', 13, 1, 'x'},
		"bytes after the last item":          {0x4f, 0x30, 0x20, 0x00, 0x30},
		"bytes after the last bare item":     {72, 1, 1, 0, 65, 1, 5, 9},
		"the per-object acked form in a run": keyedFrame([]byte{66, 1, 3, 7, 1, 1, 'x'}),
	}
	for name, st := range nonCanonicalStates() {
		out[name+" in a bare δ-group"] = append([]byte{72, 1, 1, 0, 65}, st.free...)
		out[name+" in a keyed item"] = keyedFrame(st.keyed)
	}
	return out
}

// benchKeyBatch is a batch of three counter δ-groups at bench-shaped keys,
// each after the first sharing ten bytes with the one before.
func benchKeyBatch() *protocol.BatchMsg {
	var oms []protocol.ObjectMsg
	for _, k := range []string{"c/n00000042", "c/n00000045", "c/n00000048"} {
		oms = append(oms, protocol.ObjectMsg{Key: k, Inner: protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta("store-01", 7))})
	}
	return batchOf(oms)
}

// benchFrameItems is what a bulk-acked pass hands its packer toward one
// peer: six fresh keys — counters, sets and a map field, as the benchmark
// draws them — each its own shard's only item among 64.
func benchFrameItems() []protocol.ShardItem {
	lww := &crdt.LWWRegister{TS: 1, Writer: "store-01", Val: "1y2p0ij32e8e7"}
	var items []protocol.ShardItem
	for _, om := range []protocol.ObjectMsg{
		{Key: "c/n00001201", Inner: protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta("store-01", 3))},
		{Key: "s/n00001202", Inner: protocol.NewDeltaMsg(crdt.NewGSet("e101"))},
		{Key: "c/n00001203", Inner: protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta("store-01", 5))},
		{Key: "m/n000024/f04", Inner: protocol.NewDeltaMsg(lattice.NewMapEntry("m/n000024/f04", lww))},
		{Key: "s/n00001205", Inner: protocol.NewDeltaMsg(crdt.NewGSet("e104"))},
		{Key: "c/n00001206", Inner: protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta("store-01", 8))},
	} {
		items = append(items, protocol.ShardItem{Shard: protocol.ShardOf(om.Key, 64), Msg: batchOf([]protocol.ObjectMsg{om})})
	}
	return items
}

// benchMixedItems is what a pass of a bench store that forwards its
// peers' writes hands its packer toward one peer: counters, sets and map
// fields at the keys the benchmark draws, written by three replicas, one
// batch a shard among 64 — one-entry counters and one-element sets in
// their short forms, a counter two replicas wrote and a set of two in their
// long ones, and every writer's name spelled once and referred to after.
func benchMixedItems() []protocol.ShardItem {
	batches := make(map[uint32][]protocol.ObjectMsg)
	for i := 0; i < 30; i++ {
		writer := fmt.Sprintf("store-%02d", 1+i%3)
		key := fmt.Sprintf("c/n%08d", 1200+i)
		var delta lattice.State = crdt.NewGCounter().IncDelta(writer, uint64(1+i))
		switch i % 5 {
		case 1:
			key, delta = fmt.Sprintf("s/n%08d", 1200+i), crdt.NewGSet(fmt.Sprintf("e%03d", i))
		case 2:
			key = fmt.Sprintf("m/n%06d/f%02d", 24, i)
			delta = lattice.NewMapEntry(key, &crdt.LWWRegister{TS: uint64(i), Writer: writer, Val: fmt.Sprintf("v%d", i)})
		case 3:
			delta = delta.Join(crdt.NewGCounter().IncDelta(fmt.Sprintf("store-%02d", 1+(i+1)%3), 2))
		case 4:
			key, delta = fmt.Sprintf("s/n%08d", 1200+i), crdt.NewGSet(fmt.Sprintf("e%03d", i), fmt.Sprintf("f%03d", i))
		}
		sh := protocol.ShardOf(key, 64)
		batches[sh] = append(batches[sh], protocol.ObjectMsg{Key: key, Inner: protocol.NewDeltaMsg(delta)})
	}
	var items []protocol.ShardItem
	for sh := uint32(0); sh < 64; sh++ {
		if b := batches[sh]; len(b) > 0 {
			slices.SortFunc(b, func(x, y protocol.ObjectMsg) int { return strings.Compare(x.Key, y.Key) })
			items = append(items, protocol.ShardItem{Shard: sh, Msg: batchOf(b)})
		}
	}
	return items
}

// refusedRuns returns, by name, frames whose run or counts are spelled in
// a way both decoders refuse: keys out of order, shared lengths that lie,
// and counts past the bytes that remain.
func refusedRuns() map[string][]byte {
	_, refused := keyedFrames()
	out := make(map[string][]byte)
	for name, data := range refused {
		if strings.Contains(name, "key") || strings.Contains(name, "shared") || strings.Contains(name, "rest") {
			out[name] = data
		}
	}
	three := chainFrame("ka", []byte{0, 2, 'k', 'b'})
	out["a run one longer than its items"] = append([]byte{72, 6}, three[2:]...)
	out["a run longer than the bytes left"] = append([]byte{72, 0x80, 0x80, 0x04}, three[2:]...)
	out["bare items that name none"] = append([]byte{72, 5, 0}, three[2:]...)
	return out
}

// chainFrame is a plain sharded frame whose run is two keyed one-element
// GSet δ-groups: the first under first, the second's key spelled as
// follower says.
func chainFrame(first string, follower []byte) []byte {
	data := append([]byte{72, 4, byte(len(first))}, first...)
	data = append(data, 13, 1, 'x')
	data = append(data, follower...)
	return append(data, 13, 1, 'y')
}

// TestKeyedItemSpellings: a keyed item has one spelling. Each form
// unpacks and re-packs to the same bytes; every second spelling, every
// replica name referred to before its spelling or spelled after it,
// tagKeyEntry and the short forms of a one-entry counter and a one-element
// set outside a keyed item — a bare state, a standalone DeltaMsg, a
// snapshot record, and for tagKeyEntry a map's value — and every other
// spelling the encoders cannot write (nonCanonical) is refused by both
// decoders.
func TestKeyedItemSpellings(t *testing.T) {
	forms, refused := keyedFrames()
	for name, data := range refusedNames() {
		refused[name] = data
	}
	for name, data := range nonCanonical() {
		refused[name] = data
	}
	var v codec.FrameView
	for i, data := range forms[1:] {
		checkUnpacked(t, data, 4, &v)
		if v.NumItems() != 9 {
			t.Errorf("form %d: unpacked %d items", i, v.NumItems())
		}
	}
	for name, data := range refused {
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Errorf("%s: DecodeMsg accepted %x", name, data)
		}
		if err := codec.UnpackFrame(data, 4, &v); err == nil {
			t.Errorf("%s: UnpackFrame accepted %x", name, data)
		}
	}
	for name, st := range nonCanonicalStates() {
		if _, _, err := codec.Decode(st.free); err == nil {
			t.Errorf("%s: Decode accepted %x", name, st.free)
		}
	}
	shortForms := [][]byte{append([]byte{11}, lwwBytes...), {12, 1, 'w', 7}, {13, 1, 'x'}}
	for _, data := range append(shortForms, append([]byte{4, 1, 1, 'k', 11}, lwwBytes...)) {
		if _, _, err := codec.Decode(data); !errors.Is(err, codec.ErrUnknownTag) {
			t.Errorf("Decode(%x): error %v, want ErrUnknownTag", data, err)
		}
	}
	// A message's tag in a keyed item is refused as an unknown one.
	for _, name := range []string{"a DeltaMsg's tag before a state", "the per-object acked form in a run"} {
		if err := codec.UnpackFrame(refused[name], 4, &v); !errors.Is(err, codec.ErrUnknownTag) {
			t.Errorf("%s: error %v, want ErrUnknownTag", name, err)
		}
	}
	// A snapshot record is a key and a state, read without the key's help
	// and without a run's names.
	for _, state := range shortForms {
		payload := append([]byte{1, 'k'}, state...)
		snap := append([]byte("CSNP\x01"), 3, 0, 1, 1)
		snap = binary.BigEndian.AppendUint32(snap, crc32.Checksum([]byte{0, 1, 1}, crc32.MakeTable(crc32.Castagnoli)))
		snap = append(binary.AppendUvarint(snap, uint64(len(payload))), payload...)
		snap = binary.BigEndian.AppendUint32(snap, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		if _, err := codec.DecodeSnapshot(snap, func(string, lattice.State) error { return nil }); !errors.Is(err, codec.ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "unknown type tag") {
			t.Errorf("a snapshot record in the short form %x: error %v, want an unknown tag", state, err)
		}
	}
	// Only δ-groups are keyed items.
	for _, m := range []protocol.Msg{protocol.NewTreeMsg(0, 0, nil, nil), protocol.NewDigestMsg(nil), batchOf(nil)} {
		if _, err := codec.EncodeMsg(batchOf([]protocol.ObjectMsg{{Key: "k", Inner: m}})); err == nil {
			t.Errorf("%s: encoded as a keyed item", m.Kind())
		}
	}
}

// TestRefusedRuns: a run whose keys are not strictly ascending, whose
// shared lengths lie, or whose counts promise more than the bytes that
// remain is refused, and a bulk-acked frame's run unpacks and re-packs to
// its bytes.
func TestRefusedRuns(t *testing.T) {
	var v codec.FrameView
	for name, data := range refusedRuns() {
		if err := codec.UnpackFrame(data, 4, &v); err == nil {
			t.Errorf("%s: UnpackFrame accepted %x", name, data)
		}
	}
	checkUnpacked(t, packFrame(benchFrameItems(), nil, protocol.LinkHeader{}), 64, &v)
	if len(v.Groups()) != 6 {
		t.Errorf("a bulk-acked frame unpacked into %d groups, want 6", len(v.Groups()))
	}
}

// TestKeyedItemHostileCount: a map field whose value claims 2^40 elements
// over a few bytes is refused having allocated no more than the bytes that
// are there: nothing the short form decodes is sized from a count.
func TestKeyedItemHostileCount(t *testing.T) {
	data := keyedFrame([]byte{11, 7}, binary.AppendUvarint(nil, 1<<40), []byte{1, 'a', 1, 'b', 1, 'c'})
	var v codec.FrameView
	if err := codec.UnpackFrame(data, 4, &v); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("error %v, want ErrTruncated", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 100
	for i := 0; i < runs; i++ {
		codec.UnpackFrame(data, 4, &v)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16*uint64(len(data)) {
		t.Fatalf("refusing %d hostile bytes allocates %d bytes", len(data), per)
	}
}

// sharedCap returns the longest prefix the encoder lets a key take from
// the key before it: the shared length it writes for two keys that differ
// only past 200 bytes.
func sharedCap(t *testing.T) int {
	t.Helper()
	prev := strings.Repeat("x", 200) + "a"
	item, err := appendKeyedMsg(nil, &prev, protocol.ObjectMsg{Key: prev[:200] + "b", Inner: protocol.NewDeltaMsg(lattice.NewMaxInt(0))}, new(codec.Names))
	if err != nil {
		t.Fatal(err)
	}
	shared, n := binary.Uvarint(item)
	if n <= 0 || shared == 0 || shared > 200 {
		t.Fatalf("the second of two keys sharing 200 bytes is written as %x", item)
	}
	return int(shared)
}

// TestFrontCodedKeysBounded: what a frame can make its receiver build is
// bounded by the cap on a key's shared prefix. A frame whose run of 2 000
// minimal items spans the whole frame — the batches of four shards, each
// key sharing the whole allowed prefix with the key before it in the run
// and adding two bytes — unpacks to keys that total less than 9 times its
// length, and a warmed view unpacks it allocating less than 16 times its
// length: the keys cost nothing but the view's buffer, the messages what
// they take.
func TestFrontCodedKeysBounded(t *testing.T) {
	const shards = 4
	prefix := strings.Repeat("x", sharedCap(t))
	batches := make([][]protocol.ObjectMsg, shards)
	for i := 0; i < 2000; i++ {
		k := prefix + string([]byte{byte('a' + i/256), byte(i)})
		sh := protocol.ShardOf(k, shards)
		batches[sh] = append(batches[sh], protocol.ObjectMsg{Key: k, Inner: protocol.NewDeltaMsg(lattice.NewMaxInt(0))})
	}
	var items []protocol.ShardItem
	for sh, b := range batches {
		items = append(items, protocol.ShardItem{Shard: uint32(sh), Msg: batchOf(b)})
	}
	data := packFrame(items, nil, protocol.LinkHeader{})
	var v codec.FrameView
	if err := codec.UnpackFrame(data, shards, &v); err != nil || v.NumItems() != 2000 || len(v.Groups()) != shards {
		t.Fatalf("unpacked %d items in %d groups: %v", v.NumItems(), len(v.Groups()), err)
	}
	rebuilt := 0
	for _, g := range v.Groups() {
		for _, iv := range g.Items {
			rebuilt += len(iv.Key)
		}
	}
	if rebuilt > 9*len(data) {
		t.Fatalf("a %d-byte frame rebuilds %d bytes of keys", len(data), rebuilt)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		codec.UnpackFrame(data, shards, &v)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16*uint64(len(data)) {
		t.Fatalf("unpacking %d bytes of shared prefixes allocates %d bytes", len(data), per)
	}
	t.Logf("%d-byte frame: %d bytes of keys rebuilt, %d allocated per unpack", len(data), rebuilt, (after.TotalAlloc-before.TotalAlloc)/runs)
}

// TestEmptyKeyInABatch: an empty key is a key. The lowest of all, it opens
// its run, whatever batch it came in, decodes and unpacks as itself, and its
// view's Key is empty but not nil — nil is a bare item's. After another key
// it is out of order, and refused.
func TestEmptyKeyInABatch(t *testing.T) {
	delta := protocol.NewDeltaMsg(crdt.NewGSet("e"))
	data := packFrame([]protocol.ShardItem{
		{Shard: 1, Msg: batchOf([]protocol.ObjectMsg{{Key: "a", Inner: delta}})},
		{Shard: 2, Msg: batchOf([]protocol.ObjectMsg{{Key: "", Inner: delta}})},
	}, nil, protocol.LinkHeader{})
	var v codec.FrameView
	checkUnpacked(t, data, 1, &v)
	for i, iv := range v.Groups()[0].Items {
		if want := []string{"", "a"}[i]; iv.Key == nil || string(iv.Key) != want {
			t.Errorf("item %d has key %q (nil: %v), want %q", i, iv.Key, iv.Key == nil, want)
		}
	}
	if _, err := codec.EncodeMsg(batchOf([]protocol.ObjectMsg{{Key: "a", Inner: delta}, {Key: "", Inner: delta}})); err == nil {
		t.Error("encoded an empty key after another")
	}
}

// TestShortSharedPrefixIsWhole: a key that shares fewer than three bytes
// with the one before it is written whole, so a probe counter after
// another counter shows "c/p/" in the frame's bytes; the probe after it
// shares five bytes and takes them.
func TestShortSharedPrefixIsWhole(t *testing.T) {
	var oms []protocol.ObjectMsg
	for _, k := range []string{"c/n00000042", "c/p/07", "c/p/08"} {
		oms = append(oms, protocol.ObjectMsg{Key: k, Inner: protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta("store-01", 7))})
	}
	data := packFrame([]protocol.ShardItem{{Shard: 0, Msg: batchOf(oms)}}, nil, protocol.LinkHeader{})
	// A one-entry counter: its writer spelled (8<<1), then referred to (0<<1|1).
	spelled, referred := "0c"+"10"+hex.EncodeToString([]byte("store-01"))+"07", "0c"+"01"+"07"
	want := "48" + "06" +
		"0b" + hex.EncodeToString([]byte("c/n00000042")) + spelled +
		"00" + "06" + hex.EncodeToString([]byte("c/p/07")) + referred +
		"05" + "01" + hex.EncodeToString([]byte("8")) + referred
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("frame\n%s, want\n%s", got, want)
	}
	checkUnpacked(t, data, 1, new(codec.FrameView))
}

// sortedValues returns m's values in the order of their names, so that a
// fuzz target's seeds keep their numbers from run to run.
func sortedValues(m map[string][]byte) [][]byte {
	names := sortedKeys(m)
	out := make([][]byte, len(names))
	for i, name := range names {
		out[i] = m[name]
	}
	return out
}

// sortedKeys returns m's names in order.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
