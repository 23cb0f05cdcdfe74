package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// packShards is the shard count the packer tests' senders run: the one an
// acked item's record is routed among.
const packShards = 64

// unit is the indivisible piece of a packed tick for comparison purposes:
// a bare shard message, or one keyed item, an object message of a batch.
// key is empty for bare units; enc is the canonical encoding of the inner
// message as a store puts it on the wire — an AckedDeltaMsg as the plain
// δ-group, with the entry seqs it leaves behind in seqs (empty for
// everything else, and for everything decoded off a frame). A keyed unit's
// shard is the one whose batch held it, which only the sender knows.
type unit struct {
	shard uint32
	keyed bool
	key   string
	enc   string
	seqs  string
}

// onWire strips what never reaches the wire: entry seqs, and the shard a
// keyed item was filed under.
func (u unit) onWire() unit {
	u.seqs = ""
	if u.keyed {
		u.shard = 0
	}
	return u
}

// unitsOf flattens shard items into comparison units in the order the
// packer puts them on the wire: the batches' keyed items as one run in key
// order, then the bare items.
func unitsOf(t testing.TB, items []protocol.ShardItem) []unit {
	t.Helper()
	var keyed, bare []unit
	for _, it := range items {
		if bm, ok := it.Msg.(*protocol.BatchMsg); ok {
			for _, om := range bm.Items {
				keyed = append(keyed, keyedUnit(t, it.Shard, om))
			}
			continue
		}
		bare = append(bare, bareUnit(t, it))
	}
	slices.SortStableFunc(keyed, func(a, b unit) int { return strings.Compare(a.key, b.key) })
	return append(keyed, bare...)
}

// frameUnits flattens an unpacked frame into comparison units in packing
// order: its run, then its bare items.
func frameUnits(t testing.TB, fc frameContent) []unit {
	t.Helper()
	var out []unit
	for _, om := range fc.keyed {
		out = append(out, keyedUnit(t, 0, om))
	}
	for _, it := range fc.bare {
		out = append(out, bareUnit(t, it))
	}
	return out
}

func keyedUnit(t testing.TB, shard uint32, om protocol.ObjectMsg) unit {
	t.Helper()
	inner, seqs := om.Inner, ""
	if a, ok := inner.(*protocol.AckedDeltaMsg); ok {
		inner, seqs = protocol.NewDeltaMsg(a.Delta), fmt.Sprint(a.Seqs)
	}
	enc, err := codec.EncodeMsg(inner)
	if err != nil {
		t.Fatalf("encode inner: %v", err)
	}
	return unit{shard: shard, keyed: true, key: om.Key, enc: string(enc), seqs: seqs}
}

func bareUnit(t testing.TB, it protocol.ShardItem) unit {
	t.Helper()
	enc, err := codec.EncodeMsg(it.Msg)
	if err != nil {
		t.Fatalf("encode msg: %v", err)
	}
	return unit{shard: it.Shard, enc: string(enc)}
}

// decodeFrames decodes every packed frame (checking the size cap) and
// flattens the carried items back into units; it also returns any digest
// vector found and on which frame.
func decodeFrames(t testing.TB, frames []packedFrame, limit int) (units []unit, digests []uint64, digestFrames int) {
	t.Helper()
	for _, f := range decodeEach(t, frames, limit) {
		units = append(units, f.units...)
		if f.digests != nil {
			digestFrames++
			digests = f.digests
		}
	}
	return units, digests, digestFrames
}

// decodedFrame is one packed frame unpacked: its content and its units.
type decodedFrame struct {
	frameContent
	units []unit
}

// decodeEach is decodeFrames frame by frame.
func decodeEach(t testing.TB, frames []packedFrame, limit int) (out []decodedFrame) {
	t.Helper()
	for i, f := range frames {
		if len(f.data) > limit {
			t.Fatalf("frame %d is %d bytes, cap %d", i, len(f.data), limit)
		}
		// The frame must unpack and, packed again from what it holds,
		// reproduce the packed bytes: the packer writes a frame's one
		// spelling (frameOf).
		fc := frameOf(t, f.data)
		if got := fc.digests != nil; got != f.digests {
			t.Fatalf("frame %d: digest presence %v, packer said %v", i, got, f.digests)
		}
		// The accounting is not on the wire: the packer's own sums feed
		// Stats().Sent and must be what the frame's content accounts for.
		if f.cost != fc.cost() {
			t.Fatalf("frame %d: packer accounted %+v, content says %+v", i, f.cost, fc.cost())
		}
		out = append(out, decodedFrame{frameContent: fc, units: frameUnits(t, fc)})
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
		items = append(items, protocol.ShardItem{Shard: shard, Msg: batchOf(oms)})
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
	res, err := packFrames(destOf(items), digests, limit, packShards, lk, 0, 0)
	if err != nil {
		t.Fatalf("packFrames: %v", err)
	}
	got, gotVec, digestFrames := decodeFrames(t, res.frames, limit)
	want := unitsOf(t, items)
	// One encode per unit, plus at most one per frame a keyed item opens
	// and one per unit dropped oversized: nothing is encoded twice to learn
	// its size.
	if res.encodes < len(want) || res.encodes > len(want)+len(res.frames)+res.oversized {
		t.Fatalf("%d encodes for %d units in %d frames, %d oversized", res.encodes, len(want), len(res.frames), res.oversized)
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
// input — the batches' keyed items as one run in key order, then the bare
// items in order — with every frame within the cap.
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
		if !lk.owed {
			t.Fatal("no frame left and the acknowledgement is not owed again")
		}
		return
	}
	if lk.owed {
		t.Fatal("acknowledgement still owed after a frame took it")
	}
	next, pos := uint64(1), 0
	for i, f := range frames {
		if wantAck := i == 0; (f.link.Ack.Inc != 0) != wantAck {
			t.Fatalf("frame %d: acknowledgement present = %v", i, !wantAck)
		}
		if i == 0 && !reflect.DeepEqual(f.link.Ack, ack) {
			t.Fatalf("first frame acknowledges %+v, want %+v", f.link.Ack, ack)
		}
		if res.oversized > 0 {
			continue // a dropped unit breaks the positional match below
		}
		var rec []ackItem
		for _, u := range want[pos : pos+len(f.units)] {
			if u.seqs != "" {
				rec = append(rec, ackItem{key: u.key})
			}
		}
		pos += len(f.units)
		fs := f.link.Seq
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
			if g := got[acked]; g.shard != protocol.ShardOf(u.key, packShards) || g.key != u.key || fmt.Sprint(g.seqs) != u.seqs {
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
// entry seq, frame by frame, a run split across frames included.
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
	if units := len(unitsOf(t, items)); res.encodes != units {
		t.Fatalf("encodes = %d, want one per keyed and bare item (%d)", res.encodes, units)
	}
}

// TestPackEncodesEachItemOnce pins the single-pass invariant the packer
// exists for: splitting a run across many frames costs one encoding call
// per object, not one per object per split level. An early predecessor's
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
	items := []protocol.ShardItem{{Shard: 3, Msg: batchOf(oms)}}
	res := checkPacked(t, items, nil, 384)
	if len(res.frames) < 10 {
		t.Fatalf("cap did not force a split: %d frames", len(res.frames))
	}
	// Exactly one per object message, and one more for each object that
	// opens a frame after the first, its key written whole.
	if want := objects + len(res.frames) - 1; res.encodes != want {
		t.Fatalf("encodes = %d, want %d: the packer re-encoded on split", res.encodes, want)
	}
	if res.oversized != 0 {
		t.Fatalf("%d oversized drops, want 0", res.oversized)
	}
}

// TestPackSplitPiecesUnpackAlone: a store whose tick overflows a small
// frame cap (maxFrame) splits its run of keys, all four shards' batches in key
// order, across frames, and every frame starts its chain of keys and its
// table of replica names again — its first key whole, the first use of each
// name spelled in full — so that each frame unpacks on its own, into a
// fresh view, to the keys and δ-groups that were written, each once, in
// ascending order across the frames, and is the canonical encoding of what
// it carries. The tick holds sets, the store's own counters and map fields,
// and counters two other replicas wrote that it forwards, so three names
// are spelled before split points and used again after them.
func TestPackSplitPiecesUnpackAlone(t *testing.T) {
	cfg := tickStoreConfig()
	cfg.ID = "w-n0"
	cfg.ObjType = simObjType
	cfg.Shards = 4
	cfg.maxFrame = 256
	c, err := newCore(cfg.withDefaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := recorder{}
	c.out = rec
	const keys = 400
	want := make(map[string]lattice.State, keys)
	var forwarded []protocol.ShardItem
	for i := 0; i < keys; i++ {
		var key string
		var delta lattice.State
		switch i % 4 {
		case 0:
			key = fmt.Sprintf("s/n%08d", i)
			delta = crdt.NewGSet(fmt.Sprintf("e%d", i))
			c.update(workload.Add(key, fmt.Sprintf("e%d", i)))
		case 1:
			key = fmt.Sprintf("c/n%08d", i)
			delta = crdt.NewGCounter().IncDelta(cfg.ID, uint64(i))
			c.update(workload.Inc(key, uint64(i)))
		case 2:
			key = fmt.Sprintf("m/n%06d/f%d", i/40, i%40)
			c.update(workload.Put(key, fmt.Sprintf("v%d", i)))
			delta = c.shardOf(key).ks.ObjectState(key)
		case 3:
			// A counter p2 wrote, and one whose entry a third replica wrote,
			// each forwarded to p1.
			key = fmt.Sprintf("c/n%08d", i)
			delta = crdt.NewGCounter().IncDelta([]string{"w-p2", "w-x9"}[i/4%2], uint64(i))
			forwarded = append(forwarded, protocol.ShardItem{Shard: protocol.ShardOf(key, cfg.Shards), Msg: batchOf([]protocol.ObjectMsg{{Key: key, Inner: protocol.NewDeltaMsg(delta)}})})
		}
		want[key] = delta
	}
	inc := uint32(testPeerInc)
	if _, err := c.deliver("p2", &inc, new(codec.FrameView), linkFrame(t, 1, 0, protocol.FrameAck{}, forwarded...), 0); err != nil {
		t.Fatal(err)
	}
	c.step(int64(cfg.SyncEvery))
	frames := rec["p1"]
	if len(frames) < 4 {
		t.Fatalf("%d frames toward p1, want the run split across many", len(frames))
	}
	names := []string{cfg.ID, "w-p2", "w-x9"}
	seen := make(map[string]bool)
	spelledAgain := make(map[string]int) // frames after the first that spell a name
	last := ""
	for i, f := range frames {
		var v codec.FrameView
		if err := codec.UnpackFrame(f, cfg.Shards, &v); err != nil {
			t.Fatalf("frame %d does not unpack on its own: %v", i, err)
		}
		used := make(map[string]int)
		for _, om := range frameOf(t, f).keyed { // which re-packs to f
			if om.Key <= last {
				t.Fatalf("frame %d: key %q after %q", i, om.Key, last)
			}
			last = om.Key
			simReplicaNames(deltaOfMsg(om.Inner), func(name string) { used[name]++ })
		}
		// Each name the frame uses is spelled in it once, whatever the
		// frames before it spelled.
		for _, name := range names {
			if n := bytes.Count(f, []byte(name)); used[name] > 0 && n != 1 || used[name] == 0 && n != 0 {
				t.Fatalf("frame %d uses %s %d times and spells it %d", i, name, used[name], n)
			}
			if used[name] > 0 && i > 0 {
				spelledAgain[name]++
			}
		}
		for _, g := range v.Groups() {
			for j := range g.Items {
				iv := &g.Items[j]
				key := string(iv.Key)
				if want[key] == nil || seen[key] {
					t.Fatalf("frame %d item %d: key %q unknown or repeated", i, j, key)
				}
				seen[key] = true
				if msg, _ := iv.Msg(); !deltaOfMsg(msg).Equal(want[key]) {
					t.Fatalf("key %q carries %v, want %v", key, msg, want[key])
				}
			}
		}
	}
	if len(seen) != keys {
		t.Fatalf("%d of %d keys arrived", len(seen), keys)
	}
	for _, name := range names {
		if spelledAgain[name] == 0 {
			t.Errorf("%s was spelled in the first frame alone, want it spelled again after a split", name)
		}
	}
}

// TestPackDropsIrreducibleOversized pins the only unpackable case: a
// single message that alone exceeds the cap is dropped and counted, and
// everything around it still ships — a bare one, and a keyed one whose
// replica name the next item uses.
func TestPackDropsIrreducibleOversized(t *testing.T) {
	items := []protocol.ShardItem{
		{Shard: 0, Msg: gsetDelta(1, 1)},
		{Shard: 1, Msg: gsetDelta(2, 500)}, // far beyond the cap
		{Shard: 2, Msg: gsetDelta(3, 1)},
	}
	res, err := packFrames(destOf(items), nil, 128, packShards, nil, 0, 0)
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
	// A keyed item dropped so takes back the name it spelled: the counter
	// after it spells its writer again, or its frame would refer to a name
	// it never spelled.
	big := lattice.NewMapEntry("a", &crdt.LWWRegister{TS: 1, Writer: "w", Val: strings.Repeat("v", 500)})
	items = []protocol.ShardItem{{Shard: 0, Msg: batchOf([]protocol.ObjectMsg{
		{Key: "a", Inner: protocol.NewDeltaMsg(big)},
		{Key: "b", Inner: protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta("w", 1))},
	})}}
	if res, err = packFrames(destOf(items), nil, 128, packShards, nil, 0, 0); err != nil || res.oversized != 1 {
		t.Fatalf("oversized = %d, want 1: %v", res.oversized, err)
	}
	if units, _, _ := decodeFrames(t, res.frames, 128); len(units) != 1 || units[0].key != "b" {
		t.Fatalf("units %+v survived, want b's", units)
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
	// Negative seeds draw bench-shaped passes (benchShapedItems): from one
	// writer down to -100, from three below, whose names a frame spells
	// once and a split spells again.
	f.Add(int64(-1), uint16(512), false)
	f.Add(int64(-2), uint16(96), true)
	f.Add(int64(-3), uint16(8192), true)
	f.Add(int64(-101), uint16(512), false)
	f.Add(int64(-102), uint16(96), true)
	f.Fuzz(func(t *testing.T, seed int64, cap16 uint16, withDigests bool) {
		rng := rand.New(rand.NewSource(seed))
		items := randomItems(rng)
		writers := 1
		if seed < -100 {
			writers = 3
		}
		if seed < 0 {
			items = benchShapedItems(rng, writers)
		}
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
		if seed < 0 {
			acked = benchShapedItems(rand.New(rand.NewSource(seed)), writers)
			ackEvery(acked)
		}
		lk, ack := owingLink()
		res := checkPackedOn(t, acked, vec, 16+int(cap16), lk)
		checkNumbered(t, lk, ack, acked, res, 16+int(cap16))
	})
}

// benchShapedItems builds a pass the shape of a bench store's toward one
// peer: fresh counter, set and map-field keys on 64 shards, the counters
// and fields written by writers replicas in turn, one batch a shard in key
// order, now and then a batch out of order or one holding the empty key,
// and a drill's close on one shard.
func benchShapedItems(rng *rand.Rand, writers int) []protocol.ShardItem {
	batches := make(map[uint32][]protocol.ObjectMsg)
	base := rng.Intn(1 << 20)
	for i := 0; i < 1+rng.Intn(200); i++ {
		n := base + i
		writer := fmt.Sprintf("store-%02d", 1+i%writers)
		var om protocol.ObjectMsg
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			om = protocol.ObjectMsg{Key: fmt.Sprintf("c/n%08d", n), Inner: protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta(writer, uint64(1+rng.Intn(9))))}
		case 5, 6, 7:
			om = protocol.ObjectMsg{Key: fmt.Sprintf("s/n%08d", n), Inner: protocol.NewDeltaMsg(crdt.NewGSet(fmt.Sprintf("e%03d", rng.Intn(256))))}
		default:
			k := fmt.Sprintf("m/n%06d/f%02d", n/50, n%50)
			om = protocol.ObjectMsg{Key: k, Inner: protocol.NewDeltaMsg(lattice.NewMapEntry(k, &crdt.LWWRegister{TS: 1, Writer: writer, Val: fmt.Sprint(rng.Uint64())}))}
		}
		sh := protocol.ShardOf(om.Key, 64)
		batches[sh] = append(batches[sh], om)
	}
	if rng.Intn(4) == 0 {
		batches[protocol.ShardOf("", 64)] = append(batches[protocol.ShardOf("", 64)], protocol.ObjectMsg{Key: "", Inner: gsetDelta(0, 1)})
	}
	var items []protocol.ShardItem
	for sh := uint32(0); sh < 64; sh++ {
		b := batches[sh]
		if len(b) == 0 {
			continue
		}
		slices.SortFunc(b, func(x, y protocol.ObjectMsg) int { return strings.Compare(x.Key, y.Key) })
		if rng.Intn(8) == 0 {
			slices.Reverse(b)
		}
		items = append(items, protocol.ShardItem{Shard: sh, Msg: batchOf(b)})
	}
	if len(items) > 0 && rng.Intn(2) == 0 {
		sh := items[rng.Intn(len(items))].Shard
		items = append(items, protocol.ShardItem{Shard: sh, Msg: protocol.NewTreeMsg(sh, 1, []uint32{3}, nil)})
	}
	return items
}

// ackEvery makes every keyed δ-group of items an acked one, with an entry
// seq of its own.
func ackEvery(items []protocol.ShardItem) {
	seq := uint64(1)
	for _, it := range items {
		if bm, ok := it.Msg.(*protocol.BatchMsg); ok {
			for i, om := range bm.Items {
				bm.Items[i].Inner = protocol.NewAckedDeltaMsg(om.Inner.(*protocol.DeltaMsg).Delta, []uint64{seq})
				seq++
			}
		}
	}
}

// TestPackJoinsAKeyNamedTwice: a pass that names one key in two batches
// toward a peer — a drill's answer and a new drill's stop on its shard —
// puts it in the run once, its δ-groups joined and, when acked, its entry
// seqs both in the link's record of the frame.
func TestPackJoinsAKeyNamedTwice(t *testing.T) {
	for _, acked := range []bool{false, true} {
		delta := func(el string, seq uint64) protocol.Msg {
			if acked {
				return protocol.NewAckedDeltaMsg(crdt.NewGSet(el), []uint64{seq})
			}
			return protocol.NewDeltaMsg(crdt.NewGSet(el))
		}
		items := []protocol.ShardItem{
			{Shard: 2, Msg: batchOf([]protocol.ObjectMsg{{Key: "a", Inner: delta("x", 1)}, {Key: "c", Inner: delta("z", 2)}})},
			{Shard: 2, Msg: batchOf([]protocol.ObjectMsg{{Key: "a", Inner: delta("y", 3)}})},
		}
		var lk *link
		if acked {
			lk = newLink(7)
		}
		res, err := packFrames(destOf(items), nil, maxFrameBytes, packShards, lk, 0, 0)
		if err != nil || len(res.frames) != 1 {
			t.Fatalf("acked %v: %d frames: %v", acked, len(res.frames), err)
		}
		run := frameOf(t, res.frames[0].data).keyed
		if len(run) != 2 || run[0].Key != "a" || !run[0].Inner.(*protocol.DeltaMsg).Delta.Equal(crdt.NewGSet("x", "y")) || run[1].Key != "c" {
			t.Fatalf("acked %v: run %+v, want a ↦ {x y}, c", acked, run)
		}
		if acked {
			rec := lk.rec(1).items
			if len(rec) != 2 || rec[0].key != "a" || fmt.Sprint(rec[0].seqs) != "[1 3]" || rec[1].key != "c" {
				t.Fatalf("the frame's record %+v, want a's seqs 1 and 3, then c's", rec)
			}
		}
		// The δ-groups the engines handed over are left as they were.
		if st := items[0].Msg.(*protocol.BatchMsg).Items[0].Inner; !deltaOfMsg(st).Equal(crdt.NewGSet("x")) {
			t.Fatalf("acked %v: the first δ-group of a became %v", acked, st)
		}
	}
}

// deltaOfMsg returns a δ-group message's state.
func deltaOfMsg(m protocol.Msg) lattice.State {
	switch v := m.(type) {
	case *protocol.DeltaMsg:
		return v.Delta
	case *protocol.AckedDeltaMsg:
		return v.Delta
	}
	return nil
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
		items = append(items, protocol.ShardItem{Shard: uint32(sh), Msg: batchOf(oms)})
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
	// Low enough that every shard's ~1.1 KiB batch must split across
	// frames.
	const limit = 512
	b.Run("greedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := packFrames(destOf(items), nil, limit, packShards, nil, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			// The invariant, enforced every iteration: one encode per keyed
			// item, one per bare item (none here) and one per split
			// boundary (the item that opens each frame after the first,
			// its key written whole) — never one per object per split
			// level.
			if want := units + len(res.frames) - 1; res.encodes != want {
				b.Fatalf("encodes = %d, want %d", res.encodes, want)
			}
			if res.oversized != 0 {
				b.Fatalf("oversized = %d", res.oversized)
			}
		}
	})
}

// batchOf is a BatchMsg over oms: the tests write the δ-groups a pass
// leaves toward a peer as batches, one a shard (destOf).
func batchOf(oms []protocol.ObjectMsg) *protocol.BatchMsg {
	return &protocol.BatchMsg{Items: oms}
}

// destOf is items as a store's passes and drills leave them toward one
// peer: the δ-groups of the batches among items, in order, and every other
// item bare.
func destOf(items []protocol.ShardItem) *outDest {
	d := new(outDest)
	for _, it := range items {
		bm, ok := it.Msg.(*protocol.BatchMsg)
		if !ok {
			d.bare = append(d.bare, it)
			continue
		}
		for _, om := range bm.Items {
			g := group{key: om.Key, delta: deltaOfMsg(om.Inner)}
			if a, ok := om.Inner.(*protocol.AckedDeltaMsg); ok {
				g.seqs, g.retry = a.Seqs, a.Retry
			}
			d.groups = append(d.groups, g)
		}
	}
	return d
}
