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
	"crdtsync/internal/protocol"
	"crdtsync/internal/vclock"
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
// to encode to.
type retiredMsg struct {
	msg  protocol.Msg
	wire []byte
}

func retiredMsgs() []retiredMsg {
	vec, dep := vclock.New(), vclock.New()
	vec.Set("n00", 4)
	dep.Set("n00", 2)
	dot := vclock.Dot{Actor: "n00", Seq: 3}
	return []retiredMsg{
		{protocol.NewStateMsg(crdt.NewGSet("a", "b")), []byte{64, 7, 2, 1, 'a', 1, 'b'}},
		{protocol.NewAckMsg([]uint64{7}), []byte{67, 1, 7}},
		{protocol.NewSBDigestMsg(vec, nil), []byte{68, 1, 3, 'n', '0', '0', 4, 0}},
		{protocol.NewSBDeltasMsg([]protocol.SBItem{{Dot: dot, Delta: crdt.NewGSet("p")}}), []byte{69, 1, 3, 'n', '0', '0', 3, 7, 1, 1, 'p'}},
		{protocol.NewOpsMsg([]protocol.TaggedOp{{Dot: dot, Dep: dep, Payload: crdt.NewGSet("e"), OpBytes: 7}}),
			[]byte{70, 1, 3, 'n', '0', '0', 3, 1, 3, 'n', '0', '0', 2, 7, 7, 1, 1, 'e'}},
	}
}

// TestAckedDeltaAndAckRoundTrip: the acked engine's δ-group keeps its
// encoding with the entry seqs spelled out; the acknowledgement it used to
// be answered with, like every retired message, has none — EncodeMsg
// refuses the message and the decoders refuse its tag as unknown, bare, in
// a batch, as a frame's bare item and as the message of a keyed item in its
// run, never skipping it.
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
		if _, err := codec.AppendObjectMsg(nil, nil, protocol.ObjectMsg{Key: "k", Inner: r.msg}); err == nil {
			t.Errorf("%s: encoded inside a batch", kind)
		}
		inBatch := append([]byte{71, 1, 1, 'k'}, r.wire...)
		for name, data := range map[string][]byte{
			"bare":             r.wire,
			"in a batch":       inBatch,
			"as a bare item":   append([]byte{72, 1, 1, 0}, r.wire...),
			"in a frame's run": append([]byte{72, 2, 1, 'k'}, r.wire...),
		} {
			if _, _, err := codec.DecodeMsg(data); !errors.Is(err, codec.ErrUnknownTag) {
				t.Errorf("%s %s: DecodeMsg error %v, want ErrUnknownTag", kind, name, err)
			}
			if data[0] != 72 {
				continue
			}
			if err := codec.UnpackFrame(data, 4, &v); !errors.Is(err, codec.ErrUnknownTag) {
				t.Errorf("%s %s: UnpackFrame error %v, want ErrUnknownTag", kind, name, err)
			}
		}
	}
}

func TestBatchMsgRoundTrip(t *testing.T) {
	items := []protocol.ObjectMsg{
		{Key: "obj1", Inner: protocol.NewDeltaMsg(crdt.NewGSet("a"))},
		{Key: "obj2", Inner: protocol.NewAckedDeltaMsg(crdt.NewGCounter(), []uint64{1})},
	}
	m := protocol.BatchOf(items)
	got := msgRoundTrip(t, m).(*protocol.BatchMsg)
	if len(got.Items) != 2 || got.Items[0].Key != "obj1" {
		t.Fatalf("items = %+v", got.Items)
	}
	if got.Items[0].Inner.Kind() != "delta" || got.Items[1].Inner.Kind() != "delta-acked" {
		t.Error("nested message kinds mismatch")
	}
}

func TestShardedMsgRoundTrip(t *testing.T) {
	batch := protocol.BatchOf([]protocol.ObjectMsg{
		{Key: "user:1", Inner: protocol.NewDeltaMsg(crdt.NewGSet("a"))},
		{Key: "user:2", Inner: protocol.NewDeltaMsg(crdt.NewGSet("b"))},
	})
	items := []protocol.ShardItem{
		{Shard: 0, Msg: batch},
		{Shard: 13, Msg: protocol.NewDeltaMsg(crdt.NewGSet("c"))},
	}
	m := protocol.NewShardedMsg(items)
	got := msgRoundTrip(t, m).(*protocol.ShardedMsg)
	if len(got.Items) != 1 || got.Items[0].Shard != 13 || got.Items[0].Msg.Kind() != "delta" {
		t.Fatalf("bare items = %+v", got.Items)
	}
	if len(got.Keyed) != 2 || got.Keyed[0].Key != "user:1" || got.Keyed[1].Key != "user:2" {
		t.Errorf("keyed run = %+v", got.Keyed)
	}
	// A batch is keyed items: as a bare item it is refused both ways.
	if _, err := codec.EncodeMsg(&protocol.ShardedMsg{Items: items}); err == nil {
		t.Error("a batch encoded as a bare item")
	}
	bare, _ := codec.AppendShardItem([]byte{72, 1, 1}, items[0])
	if _, _, err := codec.DecodeMsg(bare); err == nil {
		t.Error("a batch decoded as a bare item")
	}
	var v codec.FrameView
	if err := codec.UnpackFrame(bare, 16, &v); err == nil {
		t.Error("a batch unpacked as a bare item")
	}
}

// TestShardedMsgKeysAscend: a frame's run names each key once, in
// ascending order. NewShardedMsg sorts the batches' items into one run,
// joining the δ-groups of a key two batches name; the encoder refuses a
// run that names a key twice, or out of order.
func TestShardedMsgKeysAscend(t *testing.T) {
	delta := protocol.NewDeltaMsg(crdt.NewGSet("a"))
	batch := func(keys ...string) *protocol.BatchMsg {
		var oms []protocol.ObjectMsg
		for _, k := range keys {
			oms = append(oms, protocol.ObjectMsg{Key: k, Inner: delta})
		}
		return protocol.BatchOf(oms)
	}
	m := protocol.NewShardedMsg([]protocol.ShardItem{{Shard: 3, Msg: batch("c", "e")}, {Shard: 1, Msg: batch("a", "d")}})
	var keys []string
	for _, om := range msgRoundTrip(t, m).(*protocol.ShardedMsg).Keyed {
		keys = append(keys, om.Key)
	}
	if !slices.Equal(keys, []string{"a", "c", "d", "e"}) {
		t.Errorf("run %q, want a c d e", keys)
	}
	for _, run := range [][]string{{"a", "a"}, {"b", "a"}, {"ab", "a"}} {
		if _, err := codec.EncodeMsg(&protocol.ShardedMsg{Keyed: batch(run...).Items}); err == nil {
			t.Errorf("encoded the run %q", run)
		}
		if _, err := codec.EncodeMsg(batch(run...)); err == nil {
			t.Errorf("encoded the batch %q", run)
		}
	}
	// A key two batches name is one item of the run, its δ-groups joined.
	joined := protocol.NewShardedMsg([]protocol.ShardItem{
		{Shard: 1, Msg: batch("a")},
		{Shard: 1, Msg: protocol.BatchOf([]protocol.ObjectMsg{{Key: "a", Inner: protocol.NewDeltaMsg(crdt.NewGSet("b"))}})},
	})
	if run := msgRoundTrip(t, joined).(*protocol.ShardedMsg).Keyed; len(run) != 1 || !run[0].Inner.(*protocol.DeltaMsg).Delta.Equal(crdt.NewGSet("a", "b")) {
		t.Errorf("a key two batches name came out as %+v, want one a ↦ {a b}", run)
	}
}

func TestShardedDigestMsgRoundTrip(t *testing.T) {
	items := []protocol.ShardItem{
		{Shard: 2, Msg: protocol.NewDeltaMsg(crdt.NewGSet("a"))},
	}
	vec := []uint64{7, 0, ^uint64(0), 0xfeedface}
	m := protocol.NewShardedDigestMsg(items, vec)
	got := msgRoundTrip(t, m).(*protocol.ShardedMsg)
	if len(got.Items) != 1 || got.Items[0].Shard != 2 {
		t.Fatalf("items = %+v", got.Items)
	}
	if len(got.Digests) != 4 || got.Digests[2] != ^uint64(0) || got.Digests[3] != 0xfeedface {
		t.Errorf("digests = %v", got.Digests)
	}
	// The plain and digest-carrying variants use distinct wire tags, so a
	// nil vector must re-encode to the plain encoding and a non-nil one
	// (even empty) to the digest-carrying encoding — the canonical fixed
	// point the fuzz target demands.
	plain, _ := codec.EncodeMsg(protocol.NewShardedMsg(items))
	carrying, _ := codec.EncodeMsg(m)
	if plain[0] == carrying[0] {
		t.Error("digest-carrying encoding shares the plain tag")
	}
	empty, _ := codec.EncodeMsg(protocol.NewShardedDigestMsg(items, []uint64{}))
	if empty[0] != carrying[0] {
		t.Error("empty non-nil vector should keep the digest-carrying tag")
	}
	gotEmpty, _, err := codec.DecodeMsg(empty)
	if err != nil {
		t.Fatal(err)
	}
	if gotEmpty.(*protocol.ShardedMsg).Digests == nil {
		t.Error("empty vector decoded to nil: re-encode would change tags")
	}
}

func TestShardedDigestMsgHostileCount(t *testing.T) {
	// The piggybacked vector's count is bounds-checked against the actual
	// remaining bytes before allocating, like DigestMsg's.
	header := []byte{74} // tagShardedDigestMsg
	for _, count := range []uint64{1 << 60, 3} {
		data := binary.AppendUvarint(append([]byte{}, header...), count)
		data = append(data, make([]byte, 16)...) // room for only 2 digests
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Errorf("digest count %d over 16 payload bytes should fail", count)
		}
	}
}

func TestShardedMsgCostAggregation(t *testing.T) {
	inner := protocol.NewDeltaMsg(crdt.NewGSet("x", "y"))
	m := protocol.NewShardedMsg([]protocol.ShardItem{{Shard: 3, Msg: inner}})
	c := m.Cost()
	if c.Messages != 1 {
		t.Errorf("messages = %d, want 1 (one frame on the wire)", c.Messages)
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
	if _, _, err := codec.DecodeMsg(msg); err == nil {
		t.Error("out-of-range shard index should fail decoding")
	}
}

func TestDecodeHostileNestingDoesNotPanic(t *testing.T) {
	// A chain of container prefixes far past legitimate nesting must fail
	// with an error, not exhaust the stack.
	var msg []byte
	for i := 0; i < 1000; i++ {
		msg = append(msg, 72)   // tagShardedMsg
		msg = append(msg, 1, 1) // one bare item
		msg = append(msg, 0)    // shard 0
	}
	if _, _, err := codec.DecodeMsg(msg); err == nil {
		t.Error("deeply nested sharded message should fail")
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
	for _, data := range [][]byte{
		append([]byte{66}, hugeCount...),    // acked δ-group seqs
		append([]byte{71}, hugeCount...),    // batch
		append([]byte{72}, hugeCount...),    // sharded, a run
		append([]byte{72, 1}, hugeCount...), // sharded, bare items
	} {
		tag := data[0]
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Errorf("tag %d: hostile count should fail", tag)
		}
	}
}

// TestShardedLinkRoundTrip: the linked header variants survive
// EncodeMsg/DecodeMsg with every combination of their fields, each under
// a tag of its own, their size is what ShardedHeaderSize says, and without
// a link header the bytes are those of the two plain variants. The
// sender's incarnation is not on the wire: it comes back zero.
func TestShardedLinkRoundTrip(t *testing.T) {
	items := []protocol.ShardItem{
		{Shard: 5, Msg: protocol.BatchOf([]protocol.ObjectMsg{
			{Key: "k", Inner: protocol.NewDeltaMsg(crdt.NewGSet("a"))},
		})},
	}
	seq := protocol.FrameSeq{Seq: 1 << 21, Back: 200}
	tags := make(map[byte]string)
	for _, m := range linkShapes(items[0].Msg) {
		data, _ := codec.EncodeMsg(m)
		if other, dup := tags[data[0]]; dup || data[0] < 79 || data[0] > 93 {
			t.Errorf("link header %+v under tag %d (also %s), want its own in 79..93", m.(*protocol.ShardedMsg).Link, data[0], other)
		}
		tags[data[0]] = fmt.Sprintf("%+v", m.(*protocol.ShardedMsg).Link)
		msgRoundTrip(t, m)
	}
	numbered := protocol.NewShardedLinkMsg(items, nil, protocol.LinkHeader{Seq: protocol.FrameSeq{Inc: 7, Seq: 1}})
	if got := msgRoundTrip(t, numbered).(*protocol.ShardedMsg); got.Link.Seq != (protocol.FrameSeq{Seq: 1}) {
		t.Errorf("sequence half came back %+v, want number 1 of no incarnation", got.Link.Seq)
	}
	ack := protocol.FrameAck{Inc: 9, Cum: 16383, Ranges: []protocol.SeqRange{{Lo: 16385, Hi: 16390}, {Lo: 16392, Hi: 16392}}}
	full := protocol.FrameAck{Inc: 9, Cum: 1} // as many ranges as an acknowledgement may carry
	for i := uint64(0); i < protocol.MaxAckRanges; i++ {
		full.Ranges = append(full.Ranges, protocol.SeqRange{Lo: 3 + 2*i, Hi: 3 + 2*i})
	}
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
		m := protocol.NewShardedLinkMsg(c.items, c.digests, c.link)
		got := msgRoundTrip(t, m).(*protocol.ShardedMsg)
		if !reflect.DeepEqual(got.Link, c.link) || !reflect.DeepEqual(got.Digests, c.digests) || len(got.Keyed) != len(m.Keyed) {
			t.Errorf("%s: decoded link %+v digests %v keyed items %d", c.name, got.Link, got.Digests, len(got.Keyed))
		}
		data, _ := codec.EncodeMsg(m)
		body, _ := codec.EncodeMsg(protocol.NewShardedMsg(c.items))
		if want := codec.ShardedHeaderSize(c.link, c.digests, len(m.Keyed), 0) + len(body) - 2; len(data) != want {
			t.Errorf("%s: %d bytes, header size says %d", c.name, len(data), want)
		}
	}
	// No link header: byte for byte the plain encodings.
	plain, _ := codec.EncodeMsg(protocol.NewShardedLinkMsg(items, nil, protocol.LinkHeader{}))
	if want, _ := codec.EncodeMsg(protocol.NewShardedMsg(items)); !bytes.Equal(plain, want) {
		t.Errorf("empty link header changed the plain frame: %x vs %x", plain, want)
	}
	withVec, _ := codec.EncodeMsg(protocol.NewShardedLinkMsg(items, []uint64{3}, protocol.LinkHeader{}))
	if want, _ := codec.EncodeMsg(protocol.NewShardedDigestMsg(items, []uint64{3})); !bytes.Equal(withVec, want) {
		t.Errorf("empty link header changed the digest frame: %x vs %x", withVec, want)
	}
}

// TestLinkItemsCarryNoSeqs: behind a numbered link header a keyed
// AckedDeltaMsg is the plain δ-group on the wire, and everything else is
// encoded as it always was — a bare one included, which no record names.
func TestLinkItemsCarryNoSeqs(t *testing.T) {
	d := crdt.NewGSet("x", "y")
	b := protocol.ObjectMsg{Key: "b", Inner: protocol.NewDeltaMsg(crdt.NewGSet("z"))}
	acked := protocol.ShardItem{Shard: 3, Msg: protocol.BatchOf([]protocol.ObjectMsg{
		{Key: "a", Inner: protocol.NewAckedDeltaMsg(d, []uint64{4, 5})}, b,
	})}
	plain := protocol.ShardItem{Shard: 3, Msg: protocol.BatchOf([]protocol.ObjectMsg{
		{Key: "a", Inner: protocol.NewDeltaMsg(d)}, b,
	})}
	run := func(first protocol.ObjectMsg, link bool) []byte {
		item := codec.AppendObjectMsg
		if link {
			item = codec.AppendLinkObjectMsg
		}
		out, err := item(nil, nil, first)
		if err != nil {
			t.Fatal(err)
		}
		out, _ = item(out, &first.Key, b)
		return out
	}
	got := run(acked.Msg.(*protocol.BatchMsg).Items[0], true)
	if want := run(plain.Msg.(*protocol.BatchMsg).Items[0], false); !bytes.Equal(got, want) {
		t.Errorf("linked run %x, want the plain δ-groups %x", got, want)
	}
	withSeqs := run(acked.Msg.(*protocol.BatchMsg).Items[0], false)
	if len(withSeqs) <= len(got) {
		t.Errorf("per-object encoding (%d bytes) is not longer than the linked one (%d)", len(withSeqs), len(got))
	}
	// EncodeMsg writes a numbered frame as the packer does; a frame that
	// only acknowledges is no such frame, and keeps the old items, and so
	// does a bare δ-group in either.
	whole := protocol.ShardItem{Shard: 3, Msg: protocol.NewAckedDeltaMsg(d, []uint64{4, 5})}
	wholeBytes, _ := codec.AppendShardItem(nil, whole)
	numbered := protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: 2, Back: 1}}
	frame, _ := codec.EncodeMsg(protocol.NewShardedLinkMsg([]protocol.ShardItem{acked, whole}, nil, numbered))
	if want := append(append(codec.AppendShardedHeader(nil, numbered, nil, 2, 1), got...), wholeBytes...); !bytes.Equal(frame, want) {
		t.Errorf("numbered frame %x, want header, linked run and bare item %x", frame, want)
	}
	acking := protocol.LinkHeader{Ack: protocol.FrameAck{Inc: 9, Cum: 2}}
	frame, _ = codec.EncodeMsg(protocol.NewShardedLinkMsg([]protocol.ShardItem{acked, whole}, nil, acking))
	if want := append(append(codec.AppendShardedHeader(nil, acking, nil, 2, 1), withSeqs...), wholeBytes...); !bytes.Equal(frame, want) {
		t.Errorf("unnumbered frame %x, want header, per-object run and bare item %x", frame, want)
	}
	gotObj, _ := codec.AppendLinkObjectMsg(nil, nil, protocol.ObjectMsg{Key: "a", Inner: protocol.NewAckedDeltaMsg(d, []uint64{4})})
	wantObj, _ := codec.AppendObjectMsg(nil, nil, protocol.ObjectMsg{Key: "a", Inner: protocol.NewDeltaMsg(d)})
	if !bytes.Equal(gotObj, wantObj) {
		t.Errorf("linked object message %x, want %x", gotObj, wantObj)
	}
}

// TestShardedLinkHostileHeaders: a link header that lies is rejected by
// the eager decoder and the unpacker alike, a range count before anything
// is allocated for it.
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
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Errorf("%s: decoder accepted %x", name, data)
		}
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

// lwwBytes is LWWRegister{TS: 1, Writer: "w", Val: "v"} encoded: a map
// field's value.
var lwwBytes = []byte{9, 1, 1, 'w', 1, 'v'}

// keyedFrame is a plain sharded frame whose run is one keyed item under
// key "k" whose message is body.
func keyedFrame(body ...[]byte) []byte {
	data := []byte{72, 2, 1, 'k'}
	for _, b := range body {
		data = append(data, b...)
	}
	return data
}

// keyedFrames returns, as frames, one keyed item in each form it takes —
// a counter's, a set's and a map field's δ-group, maps that are no field
// of their key, and the per-object acked form, plainly and behind a link
// header — and by name every spelling that is refused: second spellings
// inside a keyed item, and tagKeyEntry anywhere else.
func keyedFrames() (forms [][]byte, refused map[string][]byte) {
	field := lattice.NewMapEntry("m/a/f", &crdt.LWWRegister{TS: 1, Writer: "w", Val: "v"})
	own := lattice.NewMapEntry("m/b/f", &crdt.LWWRegister{TS: 1, Writer: "w", Val: "v"})
	two := lattice.NewMapEntry("m/c/f", lattice.NewMaxInt(3))
	two.Set("m/c/g", lattice.NewMaxInt(4))
	// Keys ascend; each after the first shares a prefix with the one
	// before, or none.
	batch := protocol.BatchOf([]protocol.ObjectMsg{
		{Key: "c/a", Inner: protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta("w", 7))},
		{Key: "m/a/e", Inner: protocol.NewDeltaMsg(lattice.NewMap())},
		{Key: "m/a/f", Inner: protocol.NewAckedDeltaMsg(field, []uint64{3})},
		{Key: "m/a/g", Inner: protocol.NewDeltaMsg(field)}, // another key's field
		{Key: "m/b/f", Inner: protocol.NewDeltaMsg(own)},
		{Key: "m/c/f", Inner: protocol.NewDeltaMsg(two)}, // two fields
		{Key: "s/a", Inner: protocol.NewDeltaMsg(crdt.NewGSet("e1", "e2"))},
	})
	for _, m := range []protocol.Msg{
		batch,
		protocol.NewShardedMsg([]protocol.ShardItem{{Shard: 1, Msg: batch}}),
		protocol.NewShardedLinkMsg([]protocol.ShardItem{{Shard: 1, Msg: batch}}, nil, protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: 1}}),
	} {
		data, err := codec.EncodeMsg(m)
		if err != nil {
			panic(err)
		}
		forms = append(forms, data)
	}
	refused = map[string][]byte{
		"a DeltaMsg's tag before a state":    keyedFrame([]byte{65, 7, 1, 1, 'a'}),
		"a map field in the long form":       keyedFrame([]byte{4, 1, 1, 'k'}, lwwBytes),
		"a map field of no value":            keyedFrame([]byte{11, 7, 0}),
		"a map field's value a map field":    keyedFrame([]byte{11, 11}, lwwBytes),
		"the short form as a map's value":    keyedFrame([]byte{4, 1, 1, 'j', 11}, lwwBytes),
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

// benchKeyBatch is a batch of three counter δ-groups at bench-shaped keys,
// each after the first sharing ten bytes with the one before.
func benchKeyBatch() *protocol.BatchMsg {
	var oms []protocol.ObjectMsg
	for _, k := range []string{"c/n00000042", "c/n00000045", "c/n00000048"} {
		oms = append(oms, protocol.ObjectMsg{Key: k, Inner: protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta("store-01", 7))})
	}
	return protocol.BatchOf(oms)
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
		items = append(items, protocol.ShardItem{Shard: protocol.ShardOf(om.Key, 64), Msg: protocol.BatchOf([]protocol.ObjectMsg{om})})
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

// chainFrame is a plain sharded frame whose run is two keyed GSet
// δ-groups: the first under first, the second's key spelled as follower
// says.
func chainFrame(first string, follower []byte) []byte {
	data := append([]byte{72, 4, byte(len(first))}, first...)
	data = append(data, 7, 1, 1, 'x')
	data = append(data, follower...)
	return append(data, 7, 1, 1, 'y')
}

// TestKeyedItemSpellings: a keyed item has one spelling. Each form decodes
// and re-encodes to the same bytes, through DecodeMsg and UnpackFrame
// alike; every second spelling, and tagKeyEntry outside a keyed item — a
// bare state, a map's value, a standalone DeltaMsg, a snapshot record — is
// refused by both.
func TestKeyedItemSpellings(t *testing.T) {
	forms, refused := keyedFrames()
	var v codec.FrameView
	for i, data := range forms {
		m, n, err := codec.DecodeMsg(data)
		if err != nil || n != len(data) {
			t.Fatalf("form %d: decoded %d of %d bytes: %v", i, n, len(data), err)
		}
		if again, _ := codec.EncodeMsg(m); !bytes.Equal(again, data) {
			t.Errorf("form %d: %x re-encodes as %x", i, data, again)
		}
		if data[0] == 71 {
			continue
		}
		if err := codec.UnpackFrame(data, 4, &v); err != nil || v.NumItems() != 7 {
			t.Errorf("form %d: unpacked %d items: %v", i, v.NumItems(), err)
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
	for _, data := range [][]byte{
		append([]byte{11}, lwwBytes...),
		append([]byte{4, 1, 1, 'k', 11}, lwwBytes...),
	} {
		if _, _, err := codec.Decode(data); !errors.Is(err, codec.ErrUnknownTag) {
			t.Errorf("Decode(%x): error %v, want ErrUnknownTag", data, err)
		}
	}
	// A DeltaMsg's tag in a keyed item is refused as an unknown one.
	if _, _, err := codec.DecodeMsg(refused["a DeltaMsg's tag before a state"]); !errors.Is(err, codec.ErrUnknownTag) {
		t.Errorf("a DeltaMsg's tag in a keyed item: error %v, want ErrUnknownTag", err)
	}
	// A snapshot record is a key and a state, read without the key's help.
	payload := append([]byte{1, 'k', 11}, lwwBytes...)
	snap := append([]byte("CSNP\x01"), 3, 0, 1, 1)
	snap = binary.BigEndian.AppendUint32(snap, crc32.Checksum([]byte{0, 1, 1}, crc32.MakeTable(crc32.Castagnoli)))
	snap = append(binary.AppendUvarint(snap, uint64(len(payload))), payload...)
	snap = binary.BigEndian.AppendUint32(snap, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if _, err := codec.DecodeSnapshot(snap, func(string, lattice.State) error { return nil }); !errors.Is(err, codec.ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "unknown type tag") {
		t.Errorf("a snapshot record in the short form: error %v, want an unknown tag", err)
	}
	// Only δ-groups are keyed items.
	for _, m := range []protocol.Msg{protocol.NewTreeMsg(0, 0, nil, nil), protocol.NewDigestMsg(nil), protocol.BatchOf(nil)} {
		if _, err := codec.AppendObjectMsg(nil, nil, protocol.ObjectMsg{Key: "k", Inner: m}); err == nil {
			t.Errorf("%s: encoded as a keyed item", m.Kind())
		}
	}
}

// TestRefusedRuns: a run whose keys are not strictly ascending, whose
// shared lengths lie, or whose counts promise more than the bytes that
// remain is refused by DecodeMsg and UnpackFrame alike, and a bulk-acked
// frame's run is accepted by both.
func TestRefusedRuns(t *testing.T) {
	var v codec.FrameView
	for name, data := range refusedRuns() {
		if _, _, err := codec.DecodeMsg(data); err == nil {
			t.Errorf("%s: DecodeMsg accepted %x", name, data)
		}
		if err := codec.UnpackFrame(data, 4, &v); err == nil {
			t.Errorf("%s: UnpackFrame accepted %x", name, data)
		}
	}
	checkUnpacked(t, encodeMsg(t, protocol.NewShardedMsg(benchFrameItems())), 64, &v)
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
	if _, _, err := codec.DecodeMsg(data); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("eager decode: error %v, want ErrTruncated", err)
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
	item, err := codec.AppendObjectMsg(nil, &prev, protocol.ObjectMsg{Key: prev[:200] + "b", Inner: protocol.NewDeltaMsg(lattice.NewMaxInt(0))})
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
		items = append(items, protocol.ShardItem{Shard: uint32(sh), Msg: protocol.BatchOf(b)})
	}
	data, err := codec.EncodeMsg(protocol.NewShardedMsg(items))
	if err != nil {
		t.Fatal(err)
	}
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
	data, err := codec.EncodeMsg(protocol.NewShardedMsg([]protocol.ShardItem{
		{Shard: 1, Msg: protocol.BatchOf([]protocol.ObjectMsg{{Key: "a", Inner: delta}})},
		{Shard: 2, Msg: protocol.BatchOf([]protocol.ObjectMsg{{Key: "", Inner: delta}})},
	}))
	if err != nil {
		t.Fatal(err)
	}
	var v codec.FrameView
	checkUnpacked(t, data, 1, &v)
	for i, iv := range v.Groups()[0].Items {
		if want := []string{"", "a"}[i]; iv.Key == nil || string(iv.Key) != want {
			t.Errorf("item %d has key %q (nil: %v), want %q", i, iv.Key, iv.Key == nil, want)
		}
	}
	if _, err := codec.EncodeMsg(protocol.BatchOf([]protocol.ObjectMsg{{Key: "a", Inner: delta}, {Key: "", Inner: delta}})); err == nil {
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
	data := encodeMsg(t, protocol.NewShardedMsg([]protocol.ShardItem{{Shard: 0, Msg: protocol.BatchOf(oms)}}))
	item := "05" + "01" + "08" + hex.EncodeToString([]byte("store-01")) + "07"
	want := "48" + "06" +
		"0b" + hex.EncodeToString([]byte("c/n00000042")) + item +
		"00" + "06" + hex.EncodeToString([]byte("c/p/07")) + item +
		"05" + "01" + hex.EncodeToString([]byte("8")) + item
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("frame\n%s, want\n%s", got, want)
	}
	checkUnpacked(t, data, 1, new(codec.FrameView))
}

// sortedValues returns m's values in the order of their names, so that a
// fuzz target's seeds keep their numbers from run to run.
func sortedValues(m map[string][]byte) [][]byte {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	out := make([][]byte, len(names))
	for i, name := range names {
		out[i] = m[name]
	}
	return out
}
