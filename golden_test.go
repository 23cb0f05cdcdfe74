package crdtsync_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
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
	return []protocol.ShardItem{{Shard: 3, Msg: batchOf(oms)}}
}

// packFrame writes the frame a store's packer writes for items, under
// link and with digests, through the packer's own append functions: the
// keyed items of their batches as one run in key order, each against the
// key before it, an AckedDeltaMsg as the plain δ-group
// (codec.AppendKeyed), then every other item bare
// (codec.AppendShardItem).
func packFrame(t *testing.T, link protocol.LinkHeader, digests []uint64, items ...protocol.ShardItem) []byte {
	t.Helper()
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
		var st lattice.State
		switch v := om.Inner.(type) {
		case *protocol.DeltaMsg:
			st = v.Delta
		case *protocol.AckedDeltaMsg:
			st = v.Delta
		default:
			t.Fatalf("no keyed form for %T", om.Inner)
		}
		if b, err = codec.AppendKeyed(b, prev, om.Key, st, &nt); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range bare {
		if b, err = codec.AppendShardItem(b, it); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// batchOf is a BatchMsg over oms, the δ-groups of one shard.
func batchOf(oms []protocol.ObjectMsg) *protocol.BatchMsg {
	return &protocol.BatchMsg{Items: oms}
}

// TestGoldenFrames pins the store's data frames byte for byte, at wire
// version 6. The two plain variants are what a delta-engine store sends;
// the linked variants are what an acked store sends, the same items behind
// a link header. Version 3 changed the keyed items alone: each δ-group is
// its state, where versions 1 and 2 put a DeltaMsg tag (0x41) before it.
// Version 4 changed the keys of a batch alone: the first is written whole,
// every later one as the length of the prefix it shares with the key
// before it, then the rest. Version 5 writes all of a frame's keyed items
// as one run in key order, with no shard index, batch tag or count per
// shard: the header's count is the run's length shifted left one bit, the
// low bit set when bare items (a drill's close) follow the run, their
// count after it. Version 6 changed the states of the keyed items alone: a
// one-entry counter is tagCounterEntry (0x0c), its replica's name and the
// count, with no count of entries — 1 byte — and the name is spelled as its
// length shifted left one bit (r0: 0x04), which later uses of it in the
// run refer back to. The link headers, the hello's layout and the bare
// items themselves did not move. The per-object acked form an unnumbered
// frame of version 6 could still carry is written by no packer and now
// refused: a frame has the one spelling its packer writes.
func TestGoldenFrames(t *testing.T) {
	// A run of 2 (0x04) | "hits" δ(GCounter r0:7) | "tags" δ(GSet a b):
	// each keyed δ-group is its key, then its state alone; the second key
	// shares 0 bytes with the first, and its rest is all 4.
	const (
		run = "0468697473" + "0c" + "047230" + "07" +
			"00" + "0474616773" + "070201610162"
		v5 = "0468697473" + "0501027230" + "07" +
			"00" + "0474616773" + "070201610162"
	)
	if saved := (len(v5) - len(run)) / 2; saved != 1 {
		t.Errorf("%d bytes shorter than version 5, want 1", saved)
	}
	enc := func(m protocol.Msg) string {
		data, err := codec.EncodeMsg(m)
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(data)
	}
	plain := protocol.LinkHeader{}
	// tagShardedMsg, a run of 2.
	if got, want := hex.EncodeToString(packFrame(t, plain, nil, goldenItems(false)...)), "48"+"04"+run; got != want {
		t.Errorf("plain frame\n got %s\nwant %s", got, want)
	}
	// tagShardedDigestMsg, 2 digest words, a run of 2.
	if got, want := hex.EncodeToString(packFrame(t, plain, []uint64{1, ^uint64(0)}, goldenItems(false)...)),
		"4a"+"02"+"0000000000000001"+"ffffffffffffffff"+"04"+run; got != want {
		t.Errorf("digest frame\n got %s\nwant %s", got, want)
	}
	// The per-object encoding of the acked engine's δ-groups that frames
	// of version 5 and before kept when unnumbered — tagAckedDeltaMsg, the
	// entry seqs, the δ — is written by no packer, and refused: a frame
	// acknowledges its δ-groups as a whole.
	perObject, _ := hex.DecodeString("48" + "04" +
		"0468697473" + "42" + "020405" + "0501027230" + "07" +
		"00" + "0474616773" + "42" + "0109" + "070201610162")
	if err := codec.UnpackFrame(perObject, 4, new(codec.FrameView)); !errors.Is(err, codec.ErrUnknownTag) {
		t.Errorf("per-object acked frame: error %v, want ErrUnknownTag", err)
	}
	if got, want := hex.EncodeToString(packFrame(t, plain, nil, goldenItems(true)...)), "48"+"04"+run; got != want {
		t.Errorf("acked δ-groups in a plain frame\n got %s\nwant %s", got, want)
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
	acked := goldenItems(true)
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
		frame := packFrame(t, c.link, c.digests, acked...)
		if got, want := hex.EncodeToString(frame), c.tag+c.fields+"04"+run; got != want { // a run of 2
			t.Errorf("linked frame %s\n got %s\nwant %s", c.tag, got, want)
		}
	}
	// An acknowledgement alone, as a store sends one once its hold is over:
	// 7 bytes of message, 13 on the socket.
	if got, want := hex.EncodeToString(codec.AppendShardedHeader(nil, protocol.LinkHeader{Ack: ack}, nil, 0, 0)), "50"+ackFields+"00"; got != want {
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
	// A connection's first frame: tagHelloMsg, the wire version (6), the
	// shard count, the sender's incarnation, and the ids of the peers the
	// sender's pipelines are up to.
	if got, want := enc(protocol.NewHelloMsg(protocol.WireVersion, 64, 0xa1b2c3d4, []string{"s-01", "s-02"})),
		"4d"+"06"+"40"+"a1b2c3d4"+"02"+"04"+"732d3031"+"04"+"732d3032"; got != want {
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
	// Its close, a bare item of a data frame, after the frame's run: the
	// sender's states for the ranges, then the nodes it wants the peer's
	// side of.
	closing := append(goldenItems(false), protocol.ShardItem{Shard: 3, Msg: protocol.NewTreeMsg(3, 2, []uint32{9, 200}, nil)})
	if got, want := hex.EncodeToString(packFrame(t, plain, nil, closing...)), "48"+"05"+"01"+run+ // a run of 2 and bare items: 1
		"03"+"4b"+"03"+"02"+"00"+"02"+"09"+"c801"; got != want { // shard | tagTreeMsg, shard, level, close, 2 nodes: 9, 200
		t.Errorf("close\n got %s\nwant %s", got, want)
	}
}

// TestItemBytesByDatatype pins one δ-group item of each datatype the store
// writes, at the keys and values the benchmark draws (a counter, a set and a
// map field), and a run of three counters one replica wrote, at wire
// version 6 and as versions 5 and 2 wrote them. Version 3 took the DeltaMsg
// tag off a counter's and a set's item: 1 byte; and wrote a map field's
// δ-group, the one-entry map {key ↦ register} under the field's own key,
// which version 2 wrote out whole — the tag, the map's tag and count, and
// the key a second time — as tagKeyEntry (0x0b) and the register: 16 bytes.
// Versions 4 and 5 did not move a lone item: it opens its frame's run,
// whose first key is whole; version 5 dropped the shard index, batch tag
// and count around it. Version 6 writes a one-entry counter and a
// one-element set with no count of entries (0x0c, 0x0d): 1 byte; and
// spells a replica name as its length shifted left one bit (store-01:
// 0x10, where its length was 0x08), the same byte, so the map field's item
// does not move. In a run, every later use of the name refers back to that
// spelling: the second and third counters shed the count and 8 of the
// name's 9 bytes. An item is the same in a plain frame and behind a link
// header, and decodes back to the δ-group under its key.
func TestItemBytesByDatatype(t *testing.T) {
	const (
		name    = "73746f72652d3031" // "store-01"
		lww     = "0901" + "10" + name + "0d3179327030696a333265386537"
		lwwV5   = "0901" + "08" + name + "0d3179327030696a333265386537"
		counter = "0c" + "10" + name + "07" // store-01:7, its name spelled
		counted = "0c" + "01" + "07"        // store-01:7, its name referred to
		countV5 = "0501" + "08" + name + "07"
	)
	one := func(key string, delta lattice.State) []protocol.ObjectMsg {
		return []protocol.ObjectMsg{{Key: key, Inner: protocol.NewDeltaMsg(delta)}}
	}
	var three []protocol.ObjectMsg
	for _, k := range []string{"c/n00000042", "c/n00000045", "c/n00000048"} {
		three = append(three, protocol.ObjectMsg{Key: k, Inner: protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta("store-01", 7))})
	}
	for _, c := range []struct {
		name              string
		oms               []protocol.ObjectMsg
		item, v5, v2      string // keys, then the δ-groups; no v2 for a run
		saved5, savedToV3 int
	}{
		{"counter", one("c/n00000042", crdt.NewGCounter().IncDelta("store-01", 7)),
			"0b632f6e3030303030303432" + counter,
			"0b632f6e3030303030303432" + countV5,
			"0b632f6e3030303030303432" + "41" + countV5, 1, 1},
		{"set", one("s/n00000043", crdt.NewGSet("e137")),
			"0b732f6e3030303030303433" + "0d" + "0465313337",
			"0b732f6e3030303030303433" + "0701" + "0465313337",
			"0b732f6e3030303030303433" + "41" + "0701" + "0465313337", 1, 1},
		{"map field", one("m/n000000/f44", lattice.NewMapEntry("m/n000000/f44", &crdt.LWWRegister{TS: 1, Writer: "store-01", Val: "1y2p0ij32e8e7"})),
			"0d6d2f6e3030303030302f663434" + "0b" + lww,
			"0d6d2f6e3030303030302f663434" + "0b" + lwwV5,
			"0d6d2f6e3030303030302f663434" + "41" + "04" + "01" + "0d6d2f6e3030303030302f663434" + lwwV5, 0, 16},
		{"three counters", three,
			"0b632f6e3030303030303432" + counter + "0a" + "0135" + counted + "0a" + "0138" + counted,
			"0b632f6e3030303030303432" + countV5 + "0a" + "0135" + countV5 + "0a" + "0138" + countV5,
			"", 19, 0},
	} {
		if saved := (len(c.v5) - len(c.item)) / 2; saved != c.saved5 {
			t.Errorf("%s: %d bytes shorter than version 5, want %d", c.name, saved, c.saved5)
		}
		if saved := (len(c.v2) - len(c.v5)) / 2; c.v2 != "" && saved != c.savedToV3 {
			t.Errorf("%s: version 3 %d bytes shorter than version 2, want %d", c.name, saved, c.savedToV3)
		}
		counts := fmt.Sprintf("%02x", 2*len(c.oms)) // a run of len(c.oms)
		data := packFrame(t, protocol.LinkHeader{}, nil, protocol.ShardItem{Shard: 5, Msg: batchOf(c.oms)})
		// tagShardedMsg, the run.
		if got, want := hex.EncodeToString(data), "48"+counts+c.item; got != want {
			t.Errorf("%s, plain frame\n got %s\nwant %s", c.name, got, want)
		}
		numbered := protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: 1}}
		acked := make([]protocol.ObjectMsg, len(c.oms))
		for i, om := range c.oms {
			acked[i] = protocol.ObjectMsg{Key: om.Key, Inner: protocol.NewAckedDeltaMsg(om.Inner.(*protocol.DeltaMsg).Delta, []uint64{uint64(i + 1)})}
		}
		linked := packFrame(t, numbered, nil, protocol.ShardItem{Shard: 5, Msg: batchOf(acked)})
		// Frame 1, waiting on nothing before it, the run.
		if got, want := hex.EncodeToString(linked), "4f"+"0100"+counts+c.item; got != want {
			t.Errorf("%s, linked frame\n got %s\nwant %s", c.name, got, want)
		}
		var v codec.FrameView
		for _, frame := range [][]byte{data, linked} {
			// One shard: the view's one group is the run.
			if err := codec.UnpackFrame(frame, 1, &v); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for i, want := range c.oms {
				iv := &v.Groups()[0].Items[i]
				delta := want.Inner.(*protocol.DeltaMsg).Delta
				if um, _ := iv.Msg(); string(iv.Key) != want.Key || !um.(*protocol.DeltaMsg).Delta.Equal(delta) {
					t.Errorf("%s: unpacked %q ↦ %v, want %q ↦ %v", c.name, iv.Key, um, want.Key, delta)
				}
			}
		}
	}
}

// TestBatchKeysFrontCoded pins three counter δ-groups of one shard at the
// keys the benchmark draws, at wire version 6 and as versions 5 and 3 wrote
// them. The first key is written whole; each later one shares "c/n000000"
// and "4" with the key before it (0x0a bytes) and writes the one byte that
// differs (0x01, then the byte), 3 bytes where version 3 wrote 12: 18
// bytes saved over the three by version 4. Version 6 spells the writer's
// name in the first counter and refers back to it in the later two, each a
// one-entry counter with no count of entries: 19 bytes more. A standalone
// batch writes them so; a frame writes them so as its run, without the
// shard index and the batch's tag and count around it that version 4
// wrote. The run is the same in a plain frame and behind a link header, and
// decodes back to its keys and δ-groups.
func TestBatchKeysFrontCoded(t *testing.T) {
	const (
		spelled  = "0c1073746f72652d303107" // GCounter store-01:7, the name spelled
		referred = "0c0107"                 // GCounter store-01:7, the name referred to
		state    = "05010873746f72652d303107"
	)
	keys := []string{"c/n00000042", "c/n00000045", "c/n00000048"}
	const (
		run = "0b632f6e3030303030303432" + spelled +
			"0a" + "0135" + referred +
			"0a" + "0138" + referred
		v5 = "0b632f6e3030303030303432" + state +
			"0a" + "0135" + state +
			"0a" + "0138" + state
		v3 = "0b632f6e3030303030303432" + state +
			"0b632f6e3030303030303435" + state +
			"0b632f6e3030303030303438" + state
	)
	if saved := (len(v3) - len(v5)) / 2; saved != 18 {
		t.Errorf("version 5 %d bytes shorter than version 3, want 18", saved)
	}
	if saved := (len(v5) - len(run)) / 2; saved != 19 {
		t.Errorf("%d bytes shorter than version 5, want 19", saved)
	}
	delta := crdt.NewGCounter().IncDelta("store-01", 7)
	oms := func(acked bool) []protocol.ObjectMsg {
		out := make([]protocol.ObjectMsg, len(keys))
		for i, k := range keys {
			out[i] = protocol.ObjectMsg{Key: k, Inner: protocol.NewDeltaMsg(delta)}
			if acked {
				out[i].Inner = protocol.NewAckedDeltaMsg(delta, []uint64{uint64(i + 1)})
			}
		}
		return out
	}
	batch, err := codec.EncodeMsg(batchOf(oms(false)))
	if err != nil {
		t.Fatal(err)
	}
	// tagBatchMsg, 3 items.
	if got, want := hex.EncodeToString(batch), "4703"+run; got != want {
		t.Errorf("standalone batch\n got %s\nwant %s", got, want)
	}
	plain := packFrame(t, protocol.LinkHeader{}, nil, protocol.ShardItem{Shard: 5, Msg: batchOf(oms(false))})
	// tagShardedMsg, a run of 3; version 4 wrote 1 item, shard 5, a batch of 3.
	if got, want := hex.EncodeToString(plain), "48"+"06"+run; got != want {
		t.Errorf("plain frame\n got %s\nwant %s", got, want)
	}
	linked := packFrame(t, protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: 1}}, nil, protocol.ShardItem{Shard: 5, Msg: batchOf(oms(true))})
	// Frame 1, waiting on nothing before it, a run of 3.
	if got, want := hex.EncodeToString(linked), "4f"+"0100"+"06"+run; got != want {
		t.Errorf("linked frame\n got %s\nwant %s", got, want)
	}
	var v codec.FrameView
	for _, frame := range [][]byte{plain, linked} {
		// One shard: the view's one group is the run.
		if err := codec.UnpackFrame(frame, 1, &v); err != nil {
			t.Fatal(err)
		}
		views := v.Groups()[0].Items
		if len(views) != len(keys) {
			t.Fatalf("unpacked %d items, want %d", len(views), len(keys))
		}
		for i, k := range keys {
			if um, _ := views[i].Msg(); string(views[i].Key) != k || !um.(*protocol.DeltaMsg).Delta.Equal(delta) {
				t.Errorf("item %d: unpacked %q, want %q ↦ %v", i, views[i].Key, k, delta)
			}
		}
	}
}

// TestFrameKeysFrontCoded pins a frame the shape of bulk-acked's: six
// fresh keys, three counters, two sets and a map field, each its own
// shard's only item among 64. Version 4 wrote six shard batches: a shard
// index, the batch's tag and count, and the key whole, every time.
// Version 5 writes the six as one run in key order, each key against the
// one before it in the frame: 43 of 170 bytes saved, 7.2 an item — 18 of
// shard headers, and 25 of keys, which the three counters' and the two
// sets' share (10 bytes each after the first of their prefix). Version 6
// spells the writer's name once, in the first counter, and refers back to
// it from the other two and from the map field's register, and writes the
// counters and sets with no count of entries: 29 bytes more, 127 → 98.
func TestFrameKeysFrontCoded(t *testing.T) {
	const (
		name    = "73746f72652d3031"                                   // "store-01"
		field   = "0901" + "01" + "0d3179327030696a333265386537"       // LWW {1, store-01 referred to, "1y2p0ij32e8e7"}
		fieldV5 = "09010873746f72652d30310d3179327030696a333265386537" // LWW {1, store-01, "1y2p0ij32e8e7"}
		c1201   = "0b632f6e3030303031323031"                           // "c/n00001201", whole
		c1203   = "632f6e3030303031323033"                             // "c/n00001203"
		c1206   = "632f6e3030303031323036"                             // "c/n00001206"
		m2404   = "0d6d2f6e3030303032342f663034"                       // "m/n000024/f04", whole
		s1202   = "0b732f6e3030303031323032"                           // "s/n00001202", whole
		s1205   = "732f6e3030303031323035"                             // "s/n00001205"
		spelled = "0c" + "10" + name                                   // GCounter store-01:, its name spelled; the value follows
		counter = "0c" + "01"                                          // GCounter store-01:, its name referred to
		set     = "0d04"                                               // GSet of one 4-byte element
		countV5 = "0501" + "08" + name
		setV5   = "070104"
	)
	const v6 = "48" + "0c" + // a run of 6
		c1201 + spelled + "03" +
		"0a" + "0133" + counter + "05" + // shares "c/n0000120" with the key before
		"0a" + "0136" + counter + "08" +
		"00" + m2404 + "0b" + field + // shares nothing: whole
		"00" + s1202 + set + "65313031" +
		"0a" + "0135" + set + "65313034"
	const v5 = "48" + "0c" +
		c1201 + countV5 + "03" +
		"0a" + "0133" + countV5 + "05" +
		"0a" + "0136" + countV5 + "08" +
		"00" + m2404 + "0b" + fieldV5 +
		"00" + s1202 + setV5 + "65313031" +
		"0a" + "0135" + setV5 + "65313034"
	const v4 = "48" + "06" + // 6 items, by shard
		"1b" + "4701" + "0b" + s1205 + setV5 + "65313034" + // shard 27: a batch of 1
		"1d" + "4701" + "0b" + c1203 + countV5 + "05" + // shard 29
		"2e" + "4701" + m2404 + "0b" + fieldV5 + // shard 46
		"37" + "4701" + c1201 + countV5 + "03" + // shard 55
		"3a" + "4701" + s1202 + setV5 + "65313031" + // shard 58
		"3e" + "4701" + "0b" + c1206 + countV5 + "08" // shard 62
	if len(v4)/2 != 170 || len(v5)/2 != 127 || len(v6)/2 != 98 {
		t.Fatalf("version 4 frame %d bytes, version 5 %d, version 6 %d; want 170, 127 and 98", len(v4)/2, len(v5)/2, len(v6)/2)
	}
	type item struct {
		key   string
		delta lattice.State
	}
	lww := &crdt.LWWRegister{TS: 1, Writer: "store-01", Val: "1y2p0ij32e8e7"}
	items := []item{ // as the writes came, one key a shard
		{"c/n00001201", crdt.NewGCounter().IncDelta("store-01", 3)},
		{"s/n00001202", crdt.NewGSet("e101")},
		{"c/n00001203", crdt.NewGCounter().IncDelta("store-01", 5)},
		{"m/n000024/f04", lattice.NewMapEntry("m/n000024/f04", lww)},
		{"s/n00001205", crdt.NewGSet("e104")},
		{"c/n00001206", crdt.NewGCounter().IncDelta("store-01", 8)},
	}
	var sis []protocol.ShardItem
	shards := make(map[uint32]bool)
	for _, it := range items {
		sh := protocol.ShardOf(it.key, 64)
		shards[sh] = true
		sis = append(sis, protocol.ShardItem{Shard: sh, Msg: batchOf([]protocol.ObjectMsg{{Key: it.key, Inner: protocol.NewDeltaMsg(it.delta)}})})
	}
	if len(shards) != len(items) {
		t.Fatalf("%d keys on %d shards, want one a shard", len(items), len(shards))
	}
	data := packFrame(t, protocol.LinkHeader{}, nil, sis...)
	if got := hex.EncodeToString(data); got != v6 {
		t.Errorf("frame\n got %s\nwant %s", got, v6)
	}
	var v codec.FrameView
	if err := codec.UnpackFrame(data, 64, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Groups()) != len(items) {
		t.Fatalf("%d groups, want %d", len(v.Groups()), len(items))
	}
	for _, g := range v.Groups() {
		iv := &g.Items[0]
		m, _ := iv.Msg()
		var want *item
		for i := range items {
			if items[i].key == string(iv.Key) {
				want = &items[i]
			}
		}
		if want == nil || len(g.Items) != 1 || g.Shard != protocol.ShardOf(want.key, 64) || !m.(*protocol.DeltaMsg).Delta.Equal(want.delta) {
			t.Errorf("shard %d: %d items, the first %q ↦ %v", g.Shard, len(g.Items), iv.Key, m)
		}
	}
}
