package crdtsync_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"crdtsync"
	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/protocol"
)

// The golden values below were captured at the commit before counters,
// sets and maps moved from Go maps to sorted slices (promoting back to a
// map past eight entries). Encodings, digests and everything derived
// from them — wire bytes, Merkle leaves, snapshot files — are a function
// of a state's contents only, so none of them may move when the
// representation does. The two store digests alone were captured again
// when a shard's digest became the XOR of per-key content hashes instead
// of one fold over its sorted keys; the content hashes beside them say
// that what the stores hold did not move.

// goldenScript is a fixed sequence of updates: counters written once,
// twice and from three replicas, sets of 1 to 30 elements inserted out of
// order (so they cross the promotion constant), and map fields
// overwritten up to three times. writers is 1 for a lone store and 3 for
// a cluster; every map field has a single writer, as the LWW versions are
// assigned from what the writer has seen.
func goldenScript(stores []*crdtsync.Store) (keys int) {
	w := len(stores)
	for i := 0; i < 30; i++ {
		c := fmt.Sprintf("hits-%02d", i)
		for j := 0; j <= i%3; j++ {
			stores[(i+j)%w].Counter(c).Inc(uint64(1 + i + 7*j))
		}
		s := fmt.Sprintf("tags-%02d", i)
		for j := 0; j <= i; j++ {
			stores[j%w].Set(s).Add(fmt.Sprintf("t%03d", (j*37+i)%101))
		}
		for f := 0; f < 1+i%4; f++ {
			for v := 0; v <= f%3; v++ {
				stores[i%w].Map(fmt.Sprintf("user-%02d", i)).Put(fmt.Sprintf("f%d", f), fmt.Sprintf("v%d-%d-%d", i, f, v))
			}
		}
		keys += 2 + 1 + i%4
	}
	return keys
}

// contentHash is the SHA-256 of every object's key and canonical
// encoding, in Scan order.
func contentHash(st *crdtsync.Store) string {
	h := sha256.New()
	st.Scan("", func(key string, state crdtsync.State) bool {
		fmt.Fprintf(h, "%d:%s", len(key), key)
		h.Write(codec.Encode(state))
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenStoreDigest(t *testing.T) {
	const (
		loneDigest     = uint64(0x574537fb42d08c19)
		loneContent    = "c602a5089d8a1c9ce381d2b1bc28beae3c0a56e939e4e7b65672205b0e05b32a"
		clusterDigest  = uint64(0x79c4b8cbc0593384)
		clusterContent = "b2adb6dcf20eddeb94409bd8c9ebbffceb736c729f155252415586aef79a110b"
	)
	lone, err := crdtsync.Open(crdtsync.WithID("r0"), crdtsync.WithShards(8), crdtsync.WithSyncEvery(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Close()
	goldenScript([]*crdtsync.Store{lone})
	if d, c := lone.Digest(), contentHash(lone); d != loneDigest || c != loneContent {
		t.Errorf("lone store: digest %#x content %s, want %#x %s", d, c, loneDigest, loneContent)
	}

	for _, engine := range []crdtsync.Engine{crdtsync.EngineAcked, crdtsync.EngineDelta} {
		stores := openCluster(t, 3, crdtsync.WithEngine(engine))
		keys := goldenScript(stores)
		if err := crdtsync.WaitConverged(stores, keys, 20*time.Second, nil); err != nil {
			t.Fatal(err)
		}
		for _, st := range stores {
			if d, c := st.Digest(), contentHash(st); d != clusterDigest || c != clusterContent {
				t.Errorf("%v cluster, %s: digest %#x content %s, want %#x %s", engine, st.ID(), d, c, clusterDigest, clusterContent)
			}
		}
	}
}

func TestGoldenEncodings(t *testing.T) {
	counter := crdt.NewGCounter()
	for i := 0; i < 12; i++ {
		counter.Inc(fmt.Sprintf("node-%02d", (i*5)%12), uint64(100+i))
	}
	gset, set := crdt.NewGSet(), lattice.NewSet()
	fields, versions := crdt.NewGMap(), lattice.NewMap()
	for i := 0; i < 20; i++ {
		e := fmt.Sprintf("e%02d", (i*7)%20)
		gset.Add(e)
		set.Add(e)
		fields.Set("f-"+e, &crdt.LWWRegister{TS: uint64(i + 1), Writer: "r" + e[2:], Val: "value of " + e})
		versions.Set(e, lattice.NewMaxInt(uint64(i+1)))
	}
	nested := lattice.NewMap()
	nested.Set("small", lattice.NewSet("b", "a"))
	nested.Set("large", set.Clone())
	nested.Set("fields", fields.Clone())
	for _, c := range []struct {
		name, want string
		state      lattice.State
	}{
		{"counter-1", "af4f68f9739e73d9", crdt.NewGCounter().IncDelta("r0", 7)},
		{"counter-12", "f409f318ac1843de", counter},
		{"gset-3", "acbdc34c04e569bd", crdt.NewGSet("b", "c", "a")},
		{"gset-20", "b149445a399dfde8", gset},
		{"set-20", "a5505f72b62804d4", set},
		{"lwwmap-1", "98f59d511bcb6011", lattice.NewMapEntry("m/n000001/f01", &crdt.LWWRegister{TS: 3, Writer: "r2", Val: "x"})},
		{"lwwmap-20", "71dccc84b2af22cd", fields},
		{"gmap-20", "be10b600716ba052", versions},
		{"nested", "1944f58ae5617a73", nested},
	} {
		sum := sha256.Sum256(codec.Encode(c.state))
		if got := hex.EncodeToString(sum[:8]); got != c.want {
			t.Errorf("%s: encoding hashes to %q, want %q", c.name, got, c.want)
		}
	}
}

// goldenItems is one shard item, shard 3, a batch of a counter δ and a
// set δ; acked builds it as the acked engine emits it, with entry seqs.
func goldenItems(acked bool) []protocol.ShardItem {
	counter, set := crdt.NewGCounter().IncDelta("r0", 7), crdt.NewGSet("a", "b")
	oms := []protocol.ObjectMsg{
		{Key: "hits", Inner: protocol.NewDeltaMsg(counter)},
		{Key: "tags", Inner: protocol.NewDeltaMsg(set)},
	}
	if acked {
		oms[0].Inner = protocol.NewAckedDeltaMsg(counter, []uint64{4, 5})
		oms[1].Inner = protocol.NewAckedDeltaMsg(set, []uint64{9})
	}
	return []protocol.ShardItem{{Shard: 3, Msg: protocol.BatchOf(oms)}}
}

// TestGoldenFrames pins the store's data frames byte for byte, at wire
// version 3. The two plain variants are what a delta-engine store sends;
// the linked variants are what an acked store sends, the same items behind
// a link header. Version 3 changed the keyed items alone: each δ-group is
// its state, where versions 1 and 2 put a DeltaMsg tag (0x41) before it.
// The per-object acked form, the headers, the hello's layout and the bare
// items such as a drill's close did not move.
func TestGoldenFrames(t *testing.T) {
	// shard 3 | batch of 2 | "hits" δ(GCounter r0:7) | "tags" δ(GSet a b):
	// each keyed δ-group is its key, then its state alone.
	const items = "03" + "4702" +
		"0468697473" + "0501027230" + "07" +
		"0474616773" + "070201610162"
	enc := func(m protocol.Msg) string {
		data, err := codec.EncodeMsg(m)
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(data)
	}
	// tagShardedMsg, 1 item.
	if got, want := enc(protocol.NewShardedMsg(goldenItems(false))), "48"+"01"+items; got != want {
		t.Errorf("plain frame\n got %s\nwant %s", got, want)
	}
	// tagShardedDigestMsg, 2 digest words, 1 item.
	if got, want := enc(protocol.NewShardedDigestMsg(goldenItems(false), []uint64{1, ^uint64(0)})),
		"4a"+"02"+"0000000000000001"+"ffffffffffffffff"+"01"+items; got != want {
		t.Errorf("digest frame\n got %s\nwant %s", got, want)
	}
	// The per-object encoding of the acked engine's δ-groups, which an
	// unnumbered frame keeps: tagAckedDeltaMsg, the entry seqs, the δ.
	if got, want := enc(protocol.NewShardedMsg(goldenItems(true))), "48"+"01"+"03"+"4702"+
		"0468697473"+"42"+"020405"+"0501027230"+"07"+
		"0474616773"+"42"+"0109"+"070201610162"; got != want {
		t.Errorf("per-object acked frame\n got %s\nwant %s", got, want)
	}
	// What an acked store sends: the same δ-groups as the plain items
	// behind a link header. The header's shape is its tag, 0x4e+f for the
	// fields f that follow, in this order: 1 the frame's sequence number, 2
	// an acknowledgement, 8 ranges above the acknowledgement's mark, 4 a
	// digest vector. The sender's incarnation is not among them: its
	// connection's hello names it.
	seq := protocol.FrameSeq{Seq: 300, Back: 2}
	ack := protocol.FrameAck{Inc: 0x01020304, Cum: 127}
	ranged := protocol.FrameAck{Inc: 0x01020304, Cum: 127, Ranges: []protocol.SeqRange{{Lo: 129, Hi: 131}, {Lo: 140, Hi: 140}}}
	vec := []uint64{2}
	const (
		seqFields = "ac02" + // this frame's sequence number, 300
			"02" // the sender still waits on frames back to 298
		ackFields = "01020304" + // the incarnation whose frames are acknowledged
			"7f" // every one up to 127
		rangeFields = "02" + // two ranges above the mark:
			"00" + "02" + // 127+2+0 = 129, two more: 129..131
			"07" + "00" // 131+2+7 = 140, alone
		vecFields = "01" + "0000000000000002" // one digest word
	)
	for _, c := range []struct {
		tag, fields string
		link        protocol.LinkHeader
		digests     []uint64
	}{
		{"4f", seqFields, protocol.LinkHeader{Seq: seq}, nil},
		{"50", ackFields, protocol.LinkHeader{Ack: ack}, nil},
		{"51", seqFields + ackFields, protocol.LinkHeader{Seq: seq, Ack: ack}, nil},
		{"53", seqFields + vecFields, protocol.LinkHeader{Seq: seq}, vec},
		{"54", ackFields + vecFields, protocol.LinkHeader{Ack: ack}, vec},
		{"55", seqFields + ackFields + vecFields, protocol.LinkHeader{Seq: seq, Ack: ack}, vec},
		{"58", ackFields + rangeFields, protocol.LinkHeader{Ack: ranged}, nil},
		{"59", seqFields + ackFields + rangeFields, protocol.LinkHeader{Seq: seq, Ack: ranged}, nil},
		{"5c", ackFields + rangeFields + vecFields, protocol.LinkHeader{Ack: ranged}, vec},
		{"5d", seqFields + ackFields + rangeFields + vecFields, protocol.LinkHeader{Seq: seq, Ack: ranged}, vec},
	} {
		frame := codec.AppendShardedHeader(nil, c.link, c.digests, 1)
		frame, err := codec.AppendLinkShardItem(frame, goldenItems(true)[0])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := hex.EncodeToString(frame), c.tag+c.fields+"01"+items; got != want { // 1 item
			t.Errorf("linked frame %s\n got %s\nwant %s", c.tag, got, want)
		}
	}
	// An acknowledgement alone, as a store sends one once its hold is over:
	// 7 bytes of message, 13 on the socket.
	if got, want := hex.EncodeToString(codec.AppendShardedHeader(nil, protocol.LinkHeader{Ack: ack}, nil, 0)), "50"+ackFields+"00"; got != want {
		t.Errorf("acknowledgement alone\n got %s\nwant %s", got, want)
	}
	// The standalone advertisement: tagDigestMsg, the words, and the empty
	// shard-request list it ended with when requests shared the message.
	if got, want := enc(protocol.NewDigestMsg([]uint64{1, ^uint64(0)})),
		"49"+"02"+"0000000000000001"+"ffffffffffffffff"+"00"; got != want {
		t.Errorf("advertisement\n got %s\nwant %s", got, want)
	}
	// The one that asks for the receiver's vector back: the same body under
	// tagDigestEchoMsg.
	asking := protocol.NewDigestMsg([]uint64{1, ^uint64(0)})
	asking.Echo = true
	if got, want := enc(asking), "4e"+"02"+"0000000000000001"+"ffffffffffffffff"+"00"; got != want {
		t.Errorf("asking advertisement\n got %s\nwant %s", got, want)
	}
	// A connection's first frame: tagHelloMsg, the wire version (3), the
	// shard count, the sender's incarnation, and the ids of the peers the
	// sender's pipelines are up to.
	if got, want := enc(protocol.NewHelloMsg(protocol.WireVersion, 64, 0xa1b2c3d4, []string{"s-01", "s-02"})),
		"4d"+"03"+"40"+"a1b2c3d4"+"02"+"04"+"732d3031"+"04"+"732d3032"; got != want {
		t.Errorf("hello\n got %s\nwant %s", got, want)
	}
	// A drill's hash push: the children of a node go as the node's index
	// and their TreeFanout hashes, not as TreeFanout (index, hash) pairs.
	hashes, words := make([]uint64, protocol.TreeFanout), ""
	for i := range hashes {
		hashes[i] = uint64(i) << 56
		words += fmt.Sprintf("%02x00000000000000", i)
	}
	if got, want := enc(protocol.NewTreeMsg(3, 1, []uint32{9}, hashes)),
		"4b"+"03"+"01"+"01"+"01"+"09"+words; got != want { // tagTreeMsg, shard, level, push, 1 node: 9
		t.Errorf("hash push\n got %s\nwant %s", got, want)
	}
	// Its close, the last item of its shard in a data frame: the sender's
	// states for the ranges, then the nodes it wants the peer's side of.
	closing := append(goldenItems(false), protocol.ShardItem{Shard: 3, Msg: protocol.NewTreeMsg(3, 2, []uint32{9, 200}, nil)})
	if got, want := enc(protocol.NewShardedMsg(closing)), "48"+"02"+items+
		"03"+"4b"+"03"+"02"+"00"+"02"+"09"+"c801"; got != want { // shard | tagTreeMsg, shard, level, close, 2 nodes: 9, 200
		t.Errorf("close\n got %s\nwant %s", got, want)
	}
}

// TestItemBytesByDatatype pins one δ-group item of each datatype the store
// writes, at the keys and values the benchmark draws (a counter, a set and a
// map field), at wire version 3 and as version 2 wrote it. A counter's and a
// set's item lost the DeltaMsg tag: 1 byte. A map field's δ-group is the
// one-entry map {key ↦ register} under the field's own key, which version
// 2 wrote out whole — the tag, the map's tag and count, and the key a
// second time — and version 3 writes as tagKeyEntry (0x0b) and the
// register: 16 bytes. The item is the same in a plain frame and behind a
// link header, and decodes back to the δ-group under its key.
func TestItemBytesByDatatype(t *testing.T) {
	for _, c := range []struct {
		name, key string
		delta     lattice.State
		item, v2  string // key, then the δ-group
		saved     int
	}{
		{"counter", "c/n00000042", crdt.NewGCounter().IncDelta("store-01", 7),
			"0b632f6e3030303030303432" + "05010873746f72652d303107",
			"0b632f6e3030303030303432" + "41" + "05010873746f72652d303107", 1},
		{"set", "s/n00000043", crdt.NewGSet("e137"),
			"0b732f6e3030303030303433" + "07010465313337",
			"0b732f6e3030303030303433" + "41" + "07010465313337", 1},
		{"map field", "m/n000000/f44", lattice.NewMapEntry("m/n000000/f44", &crdt.LWWRegister{TS: 1, Writer: "store-01", Val: "1y2p0ij32e8e7"}),
			"0d6d2f6e3030303030302f663434" + "0b" + "09010873746f72652d30310d3179327030696a333265386537",
			"0d6d2f6e3030303030302f663434" + "41" + "04" + "01" + "0d6d2f6e3030303030302f663434" + "09010873746f72652d30310d3179327030696a333265386537", 16},
	} {
		if saved := (len(c.v2) - len(c.item)) / 2; saved != c.saved {
			t.Errorf("%s: %d bytes shorter than version 2, want %d", c.name, saved, c.saved)
		}
		plain := protocol.NewShardedMsg([]protocol.ShardItem{{Shard: 5, Msg: protocol.BatchOf([]protocol.ObjectMsg{
			{Key: c.key, Inner: protocol.NewDeltaMsg(c.delta)},
		})}})
		data, err := codec.EncodeMsg(plain)
		if err != nil {
			t.Fatal(err)
		}
		// tagShardedMsg, 1 item, shard 5, a batch of 1.
		if got, want := hex.EncodeToString(data), "48"+"01"+"05"+"4701"+c.item; got != want {
			t.Errorf("%s, plain frame\n got %s\nwant %s", c.name, got, want)
		}
		numbered := protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: 1}}
		linked, err := codec.AppendLinkShardItem(codec.AppendShardedHeader(nil, numbered, nil, 1),
			protocol.ShardItem{Shard: 5, Msg: protocol.BatchOf([]protocol.ObjectMsg{
				{Key: c.key, Inner: protocol.NewAckedDeltaMsg(c.delta, []uint64{1})},
			})})
		if err != nil {
			t.Fatal(err)
		}
		// Frame 1, waiting on nothing before it, 1 item.
		if got, want := hex.EncodeToString(linked), "4f"+"0100"+"01"+"05"+"4701"+c.item; got != want {
			t.Errorf("%s, linked frame\n got %s\nwant %s", c.name, got, want)
		}
		var v codec.FrameView
		for _, frame := range [][]byte{data, linked} {
			m, _, err := codec.DecodeMsg(frame)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			om := m.(*protocol.ShardedMsg).Items[0].Msg.(*protocol.BatchMsg).Items[0]
			if d, ok := om.Inner.(*protocol.DeltaMsg); !ok || om.Key != c.key || !d.Delta.Equal(c.delta) {
				t.Errorf("%s: decoded %q ↦ %v, want %q ↦ %v", c.name, om.Key, om.Inner, c.key, c.delta)
			}
			if err := codec.UnpackFrame(frame, 8, &v); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			iv := &v.Groups()[0].Items[0]
			if m, _ := iv.Msg(); string(iv.Key) != c.key || !m.(*protocol.DeltaMsg).Delta.Equal(c.delta) {
				t.Errorf("%s: unpacked %q ↦ %v, want %q ↦ %v", c.name, iv.Key, m, c.key, c.delta)
			}
		}
	}
}
