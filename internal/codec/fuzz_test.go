package codec_test

import (
	"bytes"
	"testing"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/protocol"
)

// FuzzDecodeState checks that arbitrary input never panics the state
// decoder and that accepted inputs re-encode losslessly.
func FuzzDecodeState(f *testing.F) {
	f.Add(codec.Encode(lattice.NewMaxInt(7)))
	f.Add(codec.Encode(crdt.NewGSet("a", "b")))
	c := crdt.NewGCounter()
	c.Inc("n00", 3)
	f.Add(codec.Encode(c))
	m := lattice.NewMap()
	m.Set("k", lattice.NewSet("x"))
	f.Add(codec.Encode(m))
	// The seams of the small forms: {""}, which the struct's slot cannot
	// hold; a map that grew to two entries and shrank back to one; a
	// counter whose later entry sorts first; a set either side of
	// promotion.
	f.Add(codec.Encode(crdt.NewGSet("")))
	f.Add(codec.Encode(lattice.NewSet("", "a")))
	shrunk := lattice.NewMap()
	shrunk.Set("b", lattice.NewMaxInt(1))
	shrunk.Set("a", lattice.NewMaxInt(2))
	shrunk.Set("b", lattice.NewMaxInt(0))
	f.Add(codec.Encode(shrunk))
	c.Inc("m00", 1)
	f.Add(codec.Encode(c))
	for _, n := range []int{8, 9} {
		s := crdt.NewGSet()
		for i := 0; i < n; i++ {
			s.Add(string(rune('a' + i)))
		}
		f.Add(codec.Encode(s))
	}
	aw := crdt.NewAWSet()
	aw.Add("A", "e")
	aw.Remove("e")
	f.Add(codec.Encode(aw))
	f.Add([]byte{0})
	f.Add([]byte{255, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, n, err := codec.Decode(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted input must re-encode to an equal state.
		re := codec.Encode(s)
		got, _, err := codec.Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !got.Equal(s) {
			t.Fatalf("re-encode changed the state: %v vs %v", got, s)
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
	})
}

// FuzzDecodeMsg checks that arbitrary input never panics the message
// decoder and that accepted inputs reach an encoding fixed point: the
// codec is canonical, so decode∘encode must be the identity on the bytes
// an accepted message re-encodes to.
func FuzzDecodeMsg(f *testing.F) {
	seed := func(m protocol.Msg) {
		if d, err := codec.EncodeMsg(m); err == nil {
			f.Add(d)
		}
	}
	seed(protocol.NewDeltaMsg(crdt.NewGSet("x")))
	// The retired messages' old encodings, refused by tag: a full state, a
	// per-object acknowledgement, Scuttlebutt's digest and deltas, ops.
	f.Add([]byte{64, 7, 2, 1, 97, 1, 98})
	f.Add([]byte{67, 2, 1, 2})
	f.Add([]byte{68, 1, 3, 110, 48, 48, 4, 0})
	f.Add([]byte{69, 1, 3, 110, 48, 48, 1, 7, 1, 1, 112})
	f.Add([]byte{70, 1, 3, 110, 48, 48, 3, 1, 3, 110, 48, 48, 2, 7, 7, 1, 1, 101})
	// The store's wire frames: batched sharded data and digests.
	batch := protocol.BatchOf([]protocol.ObjectMsg{
		{Key: "obj:1", Inner: protocol.NewDeltaMsg(crdt.NewGSet("a"))},
		{Key: "obj:2", Inner: protocol.NewAckedDeltaMsg(crdt.NewGSet("b"), []uint64{3})},
	})
	seed(batch)
	seed(protocol.NewShardedMsg([]protocol.ShardItem{
		{Shard: 0, Msg: batch},
		{Shard: 7, Msg: protocol.NewDeltaMsg(crdt.NewGSet("q"))},
	}))
	f.Add([]byte{72, 1, 2, 0, 65, 7, 1, 1, 97, 7, 67, 1, 9}) // a retired tag as a frame's second item
	// The digest-carrying sharded variant (piggybacked anti-entropy).
	seed(protocol.NewShardedDigestMsg([]protocol.ShardItem{
		{Shard: 3, Msg: protocol.NewDeltaMsg(crdt.NewGSet("p"))},
	}, []uint64{0, ^uint64(0), 0xabcdef}))
	seed(protocol.NewDigestMsg([]uint64{0, ^uint64(0), 0xdeadbeef}))
	f.Add([]byte{73, 0, 3, 0, 5, 255, 255, 255, 255, 15}) // digest with the shard-request list of old
	// The drill's messages: a hash push at the root and one further down,
	// a close at the leaves.
	seed(protocol.NewTreeMsg(3, 0, []uint32{0}, pushHashes(1)))
	seed(protocol.NewTreeMsg(0, 2, []uint32{7, 255}, pushHashes(2)))
	seed(protocol.NewTreeMsg(1, protocol.TreeDepth, []uint32{protocol.TreeLeaves - 1}, nil))
	f.Add([]byte{64})
	f.Add([]byte{70, 1, 2, 3})
	f.Add([]byte{72, 2, 1})                   // sharded, 2 items, truncated
	f.Add([]byte{73, 255, 255, 255, 255, 15}) // digest, hostile count
	f.Add([]byte{74, 255, 255, 255, 255, 15}) // sharded+digest, hostile count
	f.Add([]byte{75, 0, 2, 1, 255, 255, 15})  // tree push, hostile node count
	// The linked sharded variants: a numbered frame, an acknowledgement
	// with ranges riding one, one alone, and the retired flag-byte form
	// with a hostile range count.
	seed(protocol.NewShardedLinkMsg([]protocol.ShardItem{{Shard: 0, Msg: batch}}, nil,
		protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: 300, Back: 2}}))
	seed(protocol.NewShardedLinkMsg([]protocol.ShardItem{{Shard: 1, Msg: batch}}, []uint64{7}, protocol.LinkHeader{
		Seq: protocol.FrameSeq{Seq: 1},
		Ack: protocol.FrameAck{Inc: 2, Cum: 127, Ranges: []protocol.SeqRange{{Lo: 129, Hi: 129}, {Lo: 140, Hi: 1 << 40}}},
	}))
	seed(protocol.NewShardedLinkMsg(nil, nil, protocol.LinkHeader{Ack: protocol.FrameAck{Inc: 3, Cum: 9}}))
	f.Add([]byte{76, 2, 0, 0, 0, 9, 4, 255, 255, 255, 255, 15})
	// A numbered frame whose δ-group spells its seqs out all the same.
	spelled, _ := codec.AppendShardItem(codec.AppendShardedHeader(nil, protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: 1}}, nil, 0, 1),
		protocol.ShardItem{Shard: 2, Msg: protocol.NewAckedDeltaMsg(crdt.NewGSet("a"), []uint64{1, 2, 3})})
	f.Add(spelled)
	// A connection's hello — reaching two, reaching nobody, with a hostile
	// id count — and the advertisement that asks for one back.
	seed(protocol.NewHelloMsg(protocol.WireVersion, 64, 0xa1b2c3d4, []string{"s-01", "s-02"}))
	seed(protocol.NewHelloMsg(protocol.WireVersion, 1, 1, nil))
	f.Add([]byte{77, 2, 64, 0, 0, 0, 9, 255, 255, 255, 255, 15, 1, 97})
	asking := protocol.NewDigestMsg([]uint64{0, ^uint64(0)})
	asking.Echo = true
	seed(asking)
	// Every tag of the link block: each shape of link header, and the
	// values that name none.
	for _, m := range linkShapes(batch) {
		seed(m)
	}
	for _, data := range refusedLinkTags() {
		f.Add(data)
	}
	// A version 1 hello, without an incarnation, and a version 2 one whose
	// incarnation is zero.
	seed(protocol.NewHelloMsg(1, 64, 0, []string{"s-01"}))
	f.Add([]byte{77, 2, 64, 0, 0, 0, 0, 0})
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
	// before: standalone and in a frame.
	seed(benchKeyBatch())
	seed(protocol.NewShardedMsg([]protocol.ShardItem{{Shard: 2, Msg: benchKeyBatch()}}))
	// A bulk-acked frame's run, its keys from six shards in one chain,
	// plainly and numbered, and every spelling of a run that is refused.
	seed(protocol.NewShardedMsg(benchFrameItems()))
	seed(protocol.NewShardedLinkMsg(benchFrameItems(), nil, protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: 9, Back: 1}}))
	for _, data := range sortedValues(refusedRuns()) {
		f.Add(data)
	}
	// A bench-shaped run from three writers, plainly and numbered: names
	// spelled and referred to, short forms and long; and every spelling of
	// a name or a lone irreducible that is refused.
	seed(protocol.NewShardedMsg(benchMixedItems()))
	seed(protocol.NewShardedLinkMsg(benchMixedItems(), nil, protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: 4, Back: 2}}))
	for _, data := range sortedValues(refusedNames()) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := codec.DecodeMsg(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Accepted messages must re-encode, re-decode, and re-encode to
		// the same bytes (canonical fixed point).
		e1, err := codec.EncodeMsg(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		m2, n2, err := codec.DecodeMsg(e1)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if n2 != len(e1) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(e1))
		}
		if m2.Kind() != m.Kind() || m2.Cost() != m.Cost() {
			t.Fatalf("re-decode changed kind/cost: %s/%+v vs %s/%+v",
				m2.Kind(), m2.Cost(), m.Kind(), m.Cost())
		}
		e2, err := codec.EncodeMsg(m2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("encoding not a fixed point: %x vs %x", e1, e2)
		}
	})
}

// FuzzSnapshot checks the snapshot decoder never panics on arbitrary
// file bytes and that accepted files survive a round trip through the
// canonical writer: re-writing the decoded records reproduces the same
// manifest and semantically equal records. (Frame segmentation is not
// part of the format's identity — a fuzz-accepted file may cut frames
// anywhere — so the comparison is record-wise, not byte-wise.)
func FuzzSnapshot(f *testing.F) {
	w := codec.NewSnapshotWriter(3, 16, 2)
	w.Add("c/hits", func() lattice.State {
		c := crdt.NewGCounter()
		c.Inc("n00", 7)
		return c
	}())
	w.Add("s/follows", crdt.NewGSet("a", "b"))
	valid := w.Bytes()
	f.Add(valid)
	f.Add(codec.NewSnapshotWriter(0, 1, 0).Bytes())
	f.Add(valid[:len(valid)-3])           // truncated mid-CRC
	f.Add(append([]byte("CSNP"), 99))     // unknown version
	f.Add([]byte("CSNP\x01\xff\xff\x0f")) // hostile frame length
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		type rec struct {
			key string
			st  lattice.State
		}
		var recs []rec
		info, err := codec.DecodeSnapshot(data, func(key string, st lattice.State) error {
			recs = append(recs, rec{key, st})
			return nil
		})
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if info.Keys != len(recs) {
			t.Fatalf("manifest says %d keys, callback saw %d", info.Keys, len(recs))
		}
		w := codec.NewSnapshotWriter(info.Shard, info.Shards, len(recs))
		for _, r := range recs {
			w.Add(r.key, r.st)
		}
		var recs2 []rec
		info2, err := codec.DecodeSnapshot(w.Bytes(), func(key string, st lattice.State) error {
			recs2 = append(recs2, rec{key, st})
			return nil
		})
		if err != nil {
			t.Fatalf("re-written snapshot failed to decode: %v", err)
		}
		if info2 != info {
			t.Fatalf("re-written manifest %+v, want %+v", info2, info)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("re-written snapshot has %d records, want %d", len(recs2), len(recs))
		}
		for i := range recs {
			if recs2[i].key != recs[i].key || !recs2[i].st.Equal(recs[i].st) {
				t.Fatalf("record %d changed across the round trip", i)
			}
		}
	})
}

// FuzzDigest targets the anti-entropy control plane specifically: the
// digest advertisement and the drill's messages, which a store decodes
// straight off hostile connections. Beyond the fixed-point check, accepted
// tree messages must honor the invariants the transport relies on without
// re-validating: no hashes or TreeFanout of them per node, a level inside
// the tree — one short of the leaves for a push, which carries the hashes
// a level down — and every index under its level's node count.
func FuzzDigest(f *testing.F) {
	seed := func(m protocol.Msg) {
		if d, err := codec.EncodeMsg(m); err == nil {
			f.Add(d)
		}
	}
	seed(protocol.NewDigestMsg([]uint64{0, ^uint64(0), 0xdeadbeef}))
	f.Add([]byte{73, 0, 3, 0, 5, 255, 255, 255, 255, 15}) // digest with the shard-request list of old
	seed(protocol.NewTreeMsg(0, 1, []uint32{0, 1, 2, 15}, nil))
	seed(protocol.NewTreeMsg(7, 2, []uint32{0, 255}, pushHashes(2)))
	seed(protocol.NewTreeMsg(4294967295, protocol.TreeDepth, []uint32{0, protocol.TreeLeaves - 1}, nil))
	f.Add([]byte{73, 255, 255, 255, 255, 15}) // digest, hostile count
	f.Add([]byte{75, 0, 3, 1, 1, 0})          // tree, a push at the leaf level
	f.Add([]byte{75, 0, 1, 0, 1, 16})         // tree, node index == node count
	f.Add([]byte{75, 0, 0, 1, 1, 0, 1, 2, 3}) // tree, truncated child hashes

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := codec.DecodeMsg(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if tm, ok := m.(*protocol.TreeMsg); ok {
			push := len(tm.Hashes) > 0
			if push && (len(tm.Nodes) == 0 || len(tm.Hashes) != protocol.TreeFanout*len(tm.Nodes)) {
				t.Fatalf("accepted %d nodes with %d hashes", len(tm.Nodes), len(tm.Hashes))
			}
			if tm.Level > protocol.TreeDepth || push && tm.Level == protocol.TreeDepth {
				t.Fatalf("accepted level %d (push: %v)", tm.Level, push)
			}
			maxNode := uint32(protocol.TreeNodesAt(int(tm.Level)))
			for _, idx := range tm.Nodes {
				if idx >= maxNode {
					t.Fatalf("accepted node index %d at level %d (max %d)", idx, tm.Level, maxNode)
				}
			}
		}
		e1, err := codec.EncodeMsg(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		m2, _, err := codec.DecodeMsg(e1)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		e2, err := codec.EncodeMsg(m2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("encoding not a fixed point: %x vs %x", e1, e2)
		}
	})
}
