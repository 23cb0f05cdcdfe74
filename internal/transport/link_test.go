package transport

import (
	"fmt"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// Acknowledgement per link: the link's own bookkeeping first, then what a
// store does with it — over hand-built frames where the order of events
// is the point, over real stores where the socket's pipeline is, and on
// the deterministic scheduler (sim.go) where a lossy link or the timing of
// a hold is: here the held acknowledgement, loss and the lossless mesh's
// frames, and in sim_test.go reordering, duplication, long round trips and
// the loss of one chosen frame.

// TestLinkAckReceiveKeepsMarkAndRanges walks the receive record through
// in-order arrival, a gap, reordering, duplicates, a gap the sender has
// given up on, more gaps than it keeps ranges for, and a restarted peer.
func TestLinkAckReceiveKeepsMarkAndRanges(t *testing.T) {
	type rng = protocol.SeqRange
	r := func(lo, hi uint64) rng { return rng{Lo: lo, Hi: hi} }
	fs := func(seq, back uint64) protocol.FrameSeq { return protocol.FrameSeq{Inc: 5, Seq: seq, Back: back} }
	lk := newLink(1)
	for i, step := range []struct {
		in     protocol.FrameSeq
		cum    uint64
		ranges []rng
	}{
		{fs(1, 0), 1, nil},
		{fs(2, 0), 2, nil},
		{fs(4, 1), 2, []rng{r(4, 4)}},                                   // 3 is missing
		{fs(7, 4), 2, []rng{r(4, 4), r(7, 7)}},                          // so are 5 and 6
		{fs(6, 3), 2, []rng{r(4, 4), r(6, 7)}},                          // reordered: joins from below
		{fs(5, 2), 2, []rng{r(4, 7)}},                                   // closes the upper gap
		{fs(5, 2), 2, []rng{r(4, 7)}},                                   // a duplicate changes nothing
		{fs(2, 0), 2, []rng{r(4, 7)}},                                   // nor one below the mark
		{fs(3, 0), 7, nil},                                              // the reordered 3 arrives: the mark jumps
		{fs(10, 0), 10, nil},                                            // 8 and 9 lost and given up on: Back says so
		{fs(13, 2), 10, []rng{r(13, 13)}},                               // 11 and 12 still awaited
		{fs(15, 4), 10, []rng{r(13, 13), r(15, 15)}},                    //
		{fs(17, 2), 15, []rng{r(17, 17)}},                               // 11, 12, 14 given up on
		{protocol.FrameSeq{Inc: 6, Seq: 2, Back: 1}, 0, []rng{r(2, 2)}}, // another life: from 1 again
	} {
		lk.owed = false
		started := lk.receive(step.in, int64(i))
		got := append([]rng(nil), lk.ranges[:lk.nranges]...)
		if lk.cum != step.cum || !reflect.DeepEqual(got, step.ranges) || !lk.owed || !started || lk.owedAt != int64(i) {
			t.Fatalf("step %d, after %+v: mark %d ranges %v owed %v (hold started %v at %d), want %d %v true",
				i, step.in, lk.cum, got, lk.owed, started, lk.owedAt, step.cum, step.ranges)
		}
	}
	// More gaps than ranges kept: the lowest is forgotten, never the mark
	// moved past something missing. The hold starts with the first frame
	// and is not restarted by the ones that arrive during it.
	lk = newLink(1)
	for seq := uint64(2); seq <= 2*(maxAckRanges+2); seq += 2 {
		if started := lk.receive(fs(seq, seq-1), int64(seq)); started != (seq == 2) || lk.owedAt != 2 {
			t.Fatalf("frame %d: hold started %v, owed since %d; want %v, since 2", seq, started, lk.owedAt, seq == 2)
		}
	}
	if lk.cum != 0 || lk.nranges != maxAckRanges || lk.ranges[0].Lo != 6 {
		t.Fatalf("mark %d, %d ranges from %d; want 0, %d from 6", lk.cum, lk.nranges, lk.ranges[0].Lo, maxAckRanges)
	}
	// An acknowledgement rides nothing before it has been held for the
	// hold.
	if _, early := lk.takeAck(lk.owedAt+9, 10); early || !lk.owed {
		t.Fatal("an acknowledgement was handed out before its hold was over")
	}
	ack, ok := lk.takeAck(lk.owedAt+10, 10)
	if !ok || ack.Inc != 5 || ack.Cum != 0 || len(ack.Ranges) != maxAckRanges || lk.owed {
		t.Fatalf("took %+v (%v), still owed %v", ack, ok, lk.owed)
	}
	if _, again := lk.takeAck(lk.owedAt+10, 0); again {
		t.Fatal("the same acknowledgement was handed out twice")
	}
}

// numbered commits n one-item frames on lk and returns the items.
func numbered(lk *link, n int) []ackItem {
	items := make([]ackItem, n)
	for i := range items {
		items[i] = ackItem{shard: uint32(i % 4), key: fmt.Sprintf("k%d", i), seqs: []uint64{uint64(i + 1)}}
		lk.commit(lk.next(), items[i:i+1], 0)
	}
	return items
}

// TestLinkAckSettlesExactlyWhatIsNamed: the cumulative mark and the ranges
// retire their frames' entries and nothing else; an acknowledgement for
// another incarnation or for a frame never sent retires nothing.
func TestLinkAckSettlesExactlyWhatIsNamed(t *testing.T) {
	lk := newLink(7)
	items := numbered(lk, 10)
	for name, ack := range map[string]protocol.FrameAck{
		"another incarnation": {Inc: 8, Cum: 10},
		"mark beyond sent":    {Inc: 7, Cum: 11},
		"range beyond sent":   {Inc: 7, Cum: 2, Ranges: []protocol.SeqRange{{Lo: 9, Hi: 11}}},
	} {
		if out, ok := lk.acknowledge(&ack, nil, 0); ok || len(out) != 0 || lk.open != 10 {
			t.Fatalf("%s: ok=%v, retired %d, %d still open", name, ok, len(out), lk.open)
		}
	}
	out, ok := lk.acknowledge(&protocol.FrameAck{Inc: 7, Cum: 3, Ranges: []protocol.SeqRange{{Lo: 5, Hi: 6}, {Lo: 9, Hi: 9}}}, nil, 0)
	want := []ackItem{items[0], items[1], items[2], items[4], items[5], items[8]}
	if !ok || !reflect.DeepEqual(out, want) {
		t.Fatalf("retired %+v (%v), want %+v", out, ok, want)
	}
	if lk.open != 4 || lk.first != 4 || lk.kept != 4 {
		t.Fatalf("%d open from %d, kept from %d; want 4 from 4", lk.open, lk.first, lk.kept)
	}
	if fs := lk.next(); fs.Seq != 11 || fs.Back != 7 {
		t.Fatalf("next frame %+v, want number 11 waiting back to 4", fs)
	}
	// The same acknowledgement again, and a stale one, retire nothing more.
	if out, ok := lk.acknowledge(&protocol.FrameAck{Inc: 7, Cum: 3}, nil, 0); !ok || len(out) != 0 {
		t.Fatalf("a repeated acknowledgement retired %d (%v)", len(out), ok)
	}
	if out, _ := lk.acknowledge(&protocol.FrameAck{Inc: 7, Cum: 10}, nil, 0); len(out) != 4 || lk.open != 0 || lk.first != 11 {
		t.Fatalf("retired %d, %d open from %d; want 4, 0 from 11", len(out), lk.open, lk.first)
	}
}

// holdsNothing fails the test if the link still references a record —
// the only place it keeps the keys and seq slices of what it shipped.
func holdsNothing(t *testing.T, who string, lk *link) {
	t.Helper()
	if lk.open != 0 || lk.first != lk.sent+1 || lk.kept != lk.first {
		t.Errorf("%s: %d frames open, kept from %d, first %d, sent %d", who, lk.open, lk.kept, lk.first, lk.sent)
	}
	for _, rec := range lk.recs {
		if rec.items != nil {
			t.Errorf("%s: a record outlived its acknowledgement", who)
		}
	}
}

// TestLinkAckTableIsBoundedAndDrains: the table never holds more than
// maxInflight frames — the oldest is dropped, and an acknowledgement that
// names it retires nothing — and once everything is acknowledged the link
// references nothing it shipped.
func TestLinkAckTableIsBoundedAndDrains(t *testing.T) {
	lk := newLink(7)
	const extra = 40
	numbered(lk, maxInflight+extra)
	if lk.open != maxInflight || lk.first != extra+1 || lk.kept != extra+1 || lk.sent != maxInflight+extra {
		t.Fatalf("%d open from %d after %d frames, want %d from %d", lk.open, lk.first, lk.sent, maxInflight, extra+1)
	}
	if fs := lk.next(); fs.Back != maxInflight {
		t.Fatalf("next frame waits back %d, want %d", fs.Back, maxInflight)
	}
	if out, ok := lk.acknowledge(&protocol.FrameAck{Inc: 7, Cum: extra}, nil, 0); !ok || len(out) != 0 || lk.open != maxInflight {
		t.Fatalf("acknowledging dropped frames retired %d (%v), %d open", len(out), ok, lk.open)
	}
	out, _ := lk.acknowledge(&protocol.FrameAck{Inc: 7, Cum: lk.sent}, nil, 0)
	if len(out) != maxInflight {
		t.Fatalf("retired %d, want %d", len(out), maxInflight)
	}
	holdsNothing(t, "link", lk)
}

// TestLinkAckClosedFrameIsRetiredOnlyByALateAck: once the link has stopped
// waiting for a frame, an acknowledgement minted before the neighbor can
// have seen a frame that says so still retires it, at whatever delay; one
// minted after passes the number because it was told to, and retires
// nothing of it.
func TestLinkAckClosedFrameIsRetiredOnlyByALateAck(t *testing.T) {
	lk := newLink(7)
	items := numbered(lk, 4) // in tick 0
	lk.age(closeAfter - 1)
	if lk.open != 4 || lk.first != 1 {
		t.Fatalf("after %d ticks: %d open from %d, want all 4", closeAfter-1, lk.open, lk.first)
	}
	lk.age(closeAfter)
	if lk.open != 0 || lk.first != 5 || lk.kept != 1 || lk.rec(2).closed != 5 {
		t.Fatalf("after %d ticks: %d open from %d, kept from %d, closed at %d; want 0 from 5, kept from 1, closed at 5",
			closeAfter, lk.open, lk.first, lk.kept, lk.rec(2).closed)
	}
	if fs := lk.next(); fs.Seq != 5 || fs.Back != 0 {
		t.Fatalf("next frame %+v, want number 5 waiting for nothing before it", fs)
	}
	more := numbered(lk, 2) // 5 and 6 tell the neighbor
	// Minted when 3 was the newest frame seen and 2 had not arrived.
	out, ok := lk.acknowledge(&protocol.FrameAck{Inc: 7, Cum: 1, Ranges: []protocol.SeqRange{{Lo: 3, Hi: 3}}}, nil, 0)
	if want := []ackItem{items[0], items[2]}; !ok || !reflect.DeepEqual(out, want) || lk.kept != 2 {
		t.Fatalf("a late acknowledgement retired %+v (%v), kept from %d; want %+v, kept from 2", out, ok, lk.kept, want)
	}
	// Minted after 5 arrived: the mark is past 2 and 4 whether or not they
	// ever did.
	out, ok = lk.acknowledge(&protocol.FrameAck{Inc: 7, Cum: 5}, nil, 0)
	if want := []ackItem{more[0]}; !ok || !reflect.DeepEqual(out, want) {
		t.Fatalf("the mark at 5 retired %+v (%v), want frame 5's %+v alone", out, ok, want)
	}
	if lk.kept != 6 || lk.first != 6 || lk.open != 1 {
		t.Fatalf("kept from %d, %d open from %d; want frame 6 alone", lk.kept, lk.open, lk.first)
	}
	// Their records are gone: nothing names them any more.
	if out, ok := lk.acknowledge(&protocol.FrameAck{Inc: 7, Cum: 1, Ranges: []protocol.SeqRange{{Lo: 4, Hi: 4}}}, nil, 0); !ok || len(out) != 0 {
		t.Fatalf("an acknowledgement later still retired %+v (%v)", out, ok)
	}
	if out, _ := lk.acknowledge(&protocol.FrameAck{Inc: 7, Cum: 6}, nil, 0); len(out) != 1 {
		t.Fatalf("retired %d, want frame 6's one", len(out))
	}
	holdsNothing(t, "link", lk)
}

// linkFrame encodes a frame of δ-groups as a peer sends it: numbered seq
// (0 for not at all), waiting back, acknowledging ack. Its incarnation is
// the one its connection's hello named (testPeerInc, under deliver).
func linkFrame(t testing.TB, seq, back uint64, ack protocol.FrameAck, items ...protocol.ShardItem) []byte {
	t.Helper()
	var link protocol.LinkHeader
	if seq != 0 {
		link.Seq = protocol.FrameSeq{Seq: seq, Back: back}
	}
	link.Ack = ack
	return packFrame(t, link, nil, items...)
}

// TestLinkRoundTripEstimate: an acknowledgement is one round-trip sample,
// of the first-sent frame it names that carried no resend (Karn), taken as
// RFC 6298 takes it; the wait is srtt + 4·rttvar plus one hold (a period
// here), in whole ticks, and unsampledWait before the first sample.
func TestLinkRoundTripEstimate(t *testing.T) {
	const ms = int64(time.Millisecond)
	period := 10 * ms
	lk := newLink(7)
	if got := lk.wait(period); got != unsampledWait {
		t.Fatalf("wait before a sample: %d ticks, want %d", got, unsampledWait)
	}
	send := func(at int64, retry bool) {
		lk.commit(lk.next(), []ackItem{{key: "k", seqs: []uint64{lk.sent + 1}, retry: retry}}, at)
	}
	// Frames 1 (a resend) and 2 to 3: the acknowledgement at 30 ms samples
	// frame 2, sent at 5 ms.
	send(0, true)
	send(5*ms, false)
	send(8*ms, false)
	if _, ok := lk.acknowledge(&protocol.FrameAck{Inc: 7, Cum: 3}, nil, 30*ms); !ok {
		t.Fatal("acknowledgement refused")
	}
	if lk.srtt != 25*ms || lk.rttvar != 12500*1000 {
		t.Fatalf("first sample: srtt %d, rttvar %d; want 25 ms and 12.5 ms", lk.srtt, lk.rttvar)
	}
	// 25 + 4·12.5 + 10 ms = 85 ms: 9 ticks.
	if got := lk.wait(period); got != 9 {
		t.Fatalf("wait after the first sample: %d ticks, want 9", got)
	}
	// A second sample of 9 ms: rttvar moves a quarter of the way to 16 ms,
	// srtt an eighth of the way to 9 ms.
	send(40*ms, false)
	lk.acknowledge(&protocol.FrameAck{Inc: 7, Cum: 4}, nil, 49*ms)
	if lk.srtt != 23*ms || lk.rttvar != 13375*1000 {
		t.Fatalf("second sample: srtt %d, rttvar %d; want 23 ms and 13.375 ms", lk.srtt, lk.rttvar)
	}
	// An acknowledgement of a resend alone, or of nothing new, is no sample.
	send(50*ms, true)
	lk.acknowledge(&protocol.FrameAck{Inc: 7, Cum: 5}, nil, 500*ms)
	lk.acknowledge(&protocol.FrameAck{Inc: 7, Cum: 5}, nil, 900*ms)
	if lk.srtt != 23*ms || lk.rttvar != 13375*1000 {
		t.Fatalf("after a resend's acknowledgement: srtt %d, rttvar %d; want them unchanged", lk.srtt, lk.rttvar)
	}
	// 23 + 4·13.375 + 10 ms = 86.5 ms: 9 ticks.
	if got := lk.wait(period); got != 9 {
		t.Fatalf("wait after the second sample: %d ticks, want 9", got)
	}
}

// TestLinkAckOnlyAfterEveryItemApplied: a frame one of whose items was
// dropped for a shard this store does not have, or does not decode, is
// not noted as received — its sender keeps every entry it carried.
func TestLinkAckOnlyAfterEveryItemApplied(t *testing.T) {
	s := newTickStore(t)
	s.locked(func() { s.hold = 0 }) // acknowledge at once, so Frames counts them
	lk := s.links["p1"]
	// mark reads the link, which the store's sync loop may be using.
	type mark struct {
		cum          uint64
		ranges, open int
		owed         bool
	}
	markOf := func() (m mark) {
		s.locked(func() { m = mark{lk.cum, lk.nranges, lk.open, lk.owed} })
		return m
	}
	k0 := keysOnShard(len(s.shards), 0, 1)[0]
	k1 := keysOnShard(len(s.shards), 1, 1)[0]
	ackFrames := func() int { return s.Stats().AckFrames }

	if err := s.deliver("p1", linkFrame(t, 1, 0, protocol.FrameAck{}, shardBatch(0, k0))); err != nil {
		t.Fatal(err)
	}
	if m := markOf(); m.cum != 1 || ackFrames() != 1 {
		t.Fatalf("a whole frame: mark %d, %d acknowledgement frames; want 1 and 1", m.cum, ackFrames())
	}
	// One bare item naming a shard beyond the shard count (shard-count
	// skew): keyed items are routed by key, and never dropped.
	beyond := uint32(len(s.shards))
	skewed := linkFrame(t, 2, 0, protocol.FrameAck{}, shardBatch(1, k1),
		protocol.ShardItem{Shard: beyond, Msg: protocol.NewTreeMsg(beyond, protocol.TreeDepth, []uint32{5}, nil)})
	if err := s.deliver("p1", skewed); err != nil {
		t.Fatal(err)
	}
	if st, m := s.Stats(), markOf(); m.cum != 1 || m.owed || st.AckFrames != 1 || st.DroppedItems != 1 {
		t.Fatalf("a frame with a dropped item: mark %d owed %v, %d acknowledgement frames, %d dropped",
			m.cum, m.owed, st.AckFrames, st.DroppedItems)
	}
	if s.Get(k1) == nil {
		t.Fatal("the item that could be applied was not")
	}
	// One item, the last shard's, that does not decode: the frame is refused
	// before its first item is applied or its acknowledgement read, so it is
	// not noted as received and retires nothing this store sent.
	s.Update(workload.Add(k1, "mine"))
	s.SyncNow()
	if m := markOf(); m.open != 1 {
		t.Fatalf("%d frames open towards p1 after one write and a tick, want 1", m.open)
	}
	k2 := keysOnShard(len(s.shards), 2, 1)[0]
	third := linkFrame(t, 3, 1, protocol.FrameAck{Inc: lk.inc, Cum: 1}, shardBatch(0, k0), shardBatch(2, k2))
	acks := ackFrames()
	for name, bad := range corruptLastItem(t, third, k2) {
		if err := s.deliver("p1", bad); err == nil {
			t.Fatalf("%s: deliver accepted the frame", name)
		}
		if m := markOf(); m.cum != 1 || m.ranges != 0 || m.owed || ackFrames() != acks || m.open != 1 || s.Get(k2) != nil {
			t.Fatalf("%s: mark %d, %d ranges, owed %v, %d acknowledgement frames, %d open, %v applied",
				name, m.cum, m.ranges, m.owed, ackFrames()-acks, m.open, s.Get(k2))
		}
	}
	// The same frame as it was encoded is applied, retires the write and is
	// acknowledged — by a range, frame 2 never having been received.
	if err := s.deliver("p1", third); err != nil {
		t.Fatal(err)
	}
	if m := markOf(); m.cum != 1 || m.ranges != 1 || ackFrames() != acks+1 || m.open != 0 || s.Get(k2) == nil {
		t.Fatalf("the whole frame: mark %d, %d ranges, %d acknowledgement frames, %d open, %v applied",
			m.cum, m.ranges, ackFrames()-acks, m.open, s.Get(k2))
	}
	// A frame from a store that is no neighbor applies and is not
	// acknowledged: there is no link to acknowledge it on.
	if err := s.deliver("stranger", linkFrame(t, 1, 0, protocol.FrameAck{}, shardBatch(0, k0))); err != nil {
		t.Fatal(err)
	}
	if ackFrames() != acks+1 {
		t.Fatal("a non-neighbor was sent an acknowledgement")
	}
}

// TestLinkAckResendsOnTheGapWhileAcksAreHeld: a receiver that has nothing
// to send holds every acknowledgement for twice its period (an hour here),
// waiting for a data frame to ride, and so acknowledges none; the sender
// keeps the entries and sends them again unsampledWait ticks after the
// first send — its link has measured no round trip — and every
// unsampledWait ticks after that, the doubling capped at the wait, exactly
// as the engine's timer has it.
func TestLinkAckResendsOnTheGapWhileAcksAreHeld(t *testing.T) {
	stores, err := LoopbackCluster(2, StoreConfig{
		ID:        "k",
		Shards:    8,
		Engine:    EngineAcked,
		ObjType:   func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		st := st
		t.Cleanup(func() { st.Close() })
	}
	s := stores[0]
	var keys []string
	for shard := uint32(0); shard < 8; shard++ {
		keys = append(keys, keysOnShard(len(s.shards), shard, 1)[0])
		s.Update(workload.Add(keys[shard], "x"))
	}
	for tick := 1; tick <= 3*unsampledWait+1; tick++ {
		s.SyncNow()
		if got, want := s.Stats().Retransmits, 8*((tick-1)/unsampledWait); got != want {
			t.Fatalf("tick %d: %d retransmissions, want %d", tick, got, want)
		}
	}
	eventually(t, 10*time.Second, "the receiver to apply every key", func() bool {
		for _, k := range keys {
			if stores[1].Get(k) == nil {
				return false
			}
		}
		return true
	})
	st := s.Stats()
	// Four frames, none acknowledged; by the last tick those of the three
	// before are not waited for any more.
	if ps := st.Peers[stores[1].ID()]; ps.InFlight != 1 || ps.LastSent != 4 || ps.LastAcked != 0 {
		t.Errorf("sender's view of the link: %+v, want 4 frames sent, 1 in flight, none acknowledged", ps)
	}
	if got := stores[1].Stats().AckFrames; got != 0 {
		t.Errorf("the receiver sent %d acknowledgements it was holding", got)
	}
}

// TestLinkAckAgainstBlackholedPeerStaysBounded: toward a peer that never
// answers, every pass numbers another frame. Within one tick the table
// stops growing at its bound; over ticks the link stops waiting for what
// is older than closeAfter ticks, so it waits for a few ticks' frames —
// and keeps no more than the ring holds — however long the peer stays
// away.
func TestLinkAckAgainstBlackholedPeerStaysBounded(t *testing.T) {
	s := newTickStore(t)
	for i := 0; i < maxInflight+50; i++ {
		s.Update(workload.Add(fmt.Sprintf("k%d", i), "x"))
		s.locked(func() { s.writeFlush(s.now()) })
	}
	for id, ps := range s.Stats().Peers {
		if ps.LastSent != maxInflight+50 || ps.InFlight != maxInflight || ps.LastAcked != 0 {
			t.Errorf("toward %s: %+v, want %d of %d frames in flight", id, ps, maxInflight, maxInflight+50)
		}
	}
	s.locked(func() {
		for id, lk := range s.links {
			held := 0
			for _, rec := range lk.recs {
				if rec.items != nil {
					held++
				}
			}
			if held != maxInflight || len(lk.recs) != maxInflight {
				t.Errorf("toward %s: %d records held in a ring of %d", id, held, len(lk.recs))
			}
		}
	})
	for i := 0; i < 5*closeAfter; i++ {
		s.locked(func() { s.tick(s.now()) })
		for id, ps := range s.Stats().Peers {
			if i >= closeAfter && ps.InFlight > closeAfter {
				t.Fatalf("tick %d toward %s: %d frames in flight, want at most one per tick of the last %d", i, id, ps.InFlight, closeAfter)
			}
		}
	}
	s.locked(func() {
		for id, lk := range s.links {
			if lk.sent-lk.kept >= maxInflight || lk.first <= lk.kept {
				t.Errorf("toward %s: records kept from %d, waited for from %d, %d sent", id, lk.kept, lk.first, lk.sent)
			}
		}
	})
	if m := s.Memory(); m.BufferBytes == 0 {
		t.Error("the engines gave up their entries with the link's records")
	}
}

// ackAll returns the frame with which peer acknowledges everything s has
// sent it.
func ackAll(t testing.TB, s *Store, peer string) []byte {
	t.Helper()
	lk := s.links[peer]
	return linkFrame(t, 0, 0, protocol.FrameAck{Inc: lk.inc, Cum: lk.sent})
}

// TestLinkAckAppliesWithoutAllocating: retiring a frame's entries costs no
// allocation, however many δ-groups the frame carried.
func TestLinkAckAppliesWithoutAllocating(t *testing.T) {
	s := newTickStore(t)
	const keys = 48
	for i := 0; i < keys; i++ {
		s.Update(workload.Add(fmt.Sprintf("k%d", i), "x"))
	}
	s.SyncNow()
	lk := s.links["p1"]
	s.mu.Lock()
	if lk.open != 1 || len(lk.recs[1].items) != keys {
		t.Fatalf("%d frames open, the first of %d δ-groups; want 1 of %d", lk.open, len(lk.recs[1].items), keys)
	}
	rec := append([]ackItem(nil), lk.recs[1].items...)
	frame := ackAll(t, s, "p1")
	s.mu.Unlock()
	if err := s.deliver("p1", frame); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if lk.open != 0 || s.Memory().BufferBytes == 0 {
		t.Fatalf("%d frames open after p1's acknowledgement, %d buffered bytes still owed to p2", lk.open, s.Memory().BufferBytes)
	}
	// Again and again, with the sync loop held off: the same record
	// committed anew, and acknowledged by a frame unpacked into a view the
	// test holds. The engines look for the entries they have already
	// retired, at full price.
	var v codec.FrameView
	allocs := testing.AllocsPerRun(200, func() {
		lk.commit(lk.next(), rec, 0)
		ack := protocol.LinkHeader{Ack: protocol.FrameAck{Inc: lk.inc, Cum: lk.sent}}
		frame = codec.AppendShardedHeader(frame[:0], ack, nil, 0, 0)
		if err := codec.UnpackFrame(frame, len(s.shards), &v); err != nil {
			t.Fatal(err)
		}
		s.applyAck("p1", lk, &v.Link.Ack, 0)
	})
	if allocs != 0 || lk.open != 0 {
		t.Errorf("acknowledging a frame of %d δ-groups allocates %.1f times (%d frames left open), want 0", keys, allocs, lk.open)
	}
}

// TestLinkAckHeldAckBeatsRetransmission: a receiver holds an
// acknowledgement for up to twice its hold, which must still bring it
// back before the sender's timer sends the entry again — one a flush sent,
// then one a tick sent, once the link has measured the first's round trip.
// The sender's ticks are driven by hand, once a period while it waits. The
// receiver has nothing to send back, so each acknowledgement waits out
// twice its hold and leaves alone.
func TestLinkAckHeldAckBeatsRetransmission(t *testing.T) {
	forSeeds(func(seed int64) {
		s := newSim(t, seed, 2, simConfig(EngineAcked, 0))
		sender, peer := s.nodes[0], s.nodes[1]
		sender.nextTick = never // ticked by hand
		hold := peer.hold
		for i, send := range []func(int64){sender.writeFlush, sender.tick} {
			s.Update(0, workload.Add(fmt.Sprintf("s/k%d", i), "x"))
			start := s.now
			send(s.now + sender.off)
			// Within twice the hold and the round trip on the wire, the
			// engine has retired the entry; the sender's ticks meanwhile
			// found nothing to resend.
			tick := start + simPeriod
			s.await("the acknowledgement to retire the entry", 2*hold+simPeriod/4, func() bool {
				if s.now >= tick {
					sender.tick(s.now + sender.off)
					tick += simPeriod
				}
				return sender.stats().Peers["s-01"].LastAcked == uint64(i+1) && sender.st.Memory().BufferBytes == 0
			})
			if held := s.now - start; held < 2*hold {
				s.fatalf("entry %d acknowledged after %d ns, inside twice the receiver's hold of %d", i, held, hold)
			}
			sender.tick(s.now + sender.off)
		}
		sender.tick(s.now + sender.off)
		if st := sender.stats(); st.Retransmits != 0 || st.Peers["s-01"].InFlight != 0 {
			s.fatalf("%d retransmissions, %d frames in flight; want 0 and 0", st.Retransmits, st.Peers["s-01"].InFlight)
		}
		if got := peer.stats().AckFrames; got != 2 {
			s.fatalf("the receiver sent %d acknowledgement frames, want one per entry (2)", got)
		}
	})
}

// TestLinkAckConvergesUnderLoss: with one frame in ten, one in five, then
// one in two, lost in each direction — data and acknowledgements alike —
// and no digests to heal anything, the engines' retransmissions over
// numbered frames converge the replicas exactly while the loss lasts, and
// every link drains. It logs, per loss, how long after the last write the
// replicas converged (median and worst over the seeds) and how many
// resends an acknowledgement of the first send showed were spurious.
func TestLinkAckConvergesUnderLoss(t *testing.T) {
	for _, loss := range []float64{0.1, 0.2, 0.5} {
		t.Run(fmt.Sprintf("%.0f%%", 100*loss), func(t *testing.T) {
			var after []int64
			resent, spurious := 0, 0
			forSeeds(func(seed int64) {
				const keys, writes = 60, 360
				s := newSim(t, seed, 3, simConfig(EngineAcked, 0))
				s.eachLink(func(l *simLink) { l.drop = loss })
				for i := 0; i < writes; i++ {
					s.Update(i%3, workload.Add(fmt.Sprintf("s/k%02d", i%keys), fmt.Sprintf("e%d", i)))
					s.run(s.now + s.rng.Int63n(simPeriod/64))
				}
				last := s.now
				s.converge(simLossyPeriods)
				after = append(after, s.now-last)
				total := s.total()
				if total.Retransmits == 0 {
					s.fatalf("no entry was sent again: the links lost nothing")
				}
				resent += total.Retransmits
				for _, n := range s.nodes {
					spurious += n.spurious()
				}
				s.settle()
			})
			slices.Sort(after)
			t.Logf("%.0f%% loss: converged %.1f periods after the last write (median; worst %.1f), %d resends, %d spurious",
				100*loss, float64(after[len(after)/2])/float64(simPeriod), float64(after[len(after)-1])/float64(simPeriod), resent, spurious)
		})
	}
}

// TestLinkAckLosslessMeshShipsEachEntryOnce reads every frame of three
// replicas under load: once every replica has heard whom the others reach,
// each update's element crosses two links — from its origin to each of
// the others, who forward nothing — no frame carries a per-object
// acknowledgement or a per-item seq, every numbered frame is acknowledged
// by a header field — at most one per frame — and afterwards no link
// holds anything.
func TestLinkAckLosslessMeshShipsEachEntryOnce(t *testing.T) {
	const keys, writes, shards = 50, 300, 8
	// A keyed δ-group is its state alone: the item's tag is the GSet's, in
	// the short form a one-element set takes in a keyed item or the long
	// form of a bigger one.
	setTag := codec.Encode(crdt.NewGSet("x", "y"))[0]
	lone, err := codec.AppendKeyed(nil, nil, "k", crdt.NewGSet("x"), new(codec.Names))
	if err != nil {
		t.Fatal(err)
	}
	loneTag := lone[2] // after the key's length and its one byte
	forSeeds(func(seed int64) {
		s := newSim(t, seed, 3, simConfig(EngineAcked, 0))
		var frames [][]byte
		s.onSend = func(data []byte) { frames = append(frames, data) }
		// The hellos NewSim sent tell everybody that everybody reaches
		// everybody.
		s.run(s.period)
		warm := s.total()
		for i := 0; i < writes; i++ {
			s.Update(i%3, workload.Add(fmt.Sprintf("s/k%02d", i%keys), fmt.Sprintf("e%d", i)))
			s.run(s.now + s.rng.Int63n(simPeriod/32))
		}
		s.converge(simSettlePeriods)
		if why := s.lagging(); why != "" {
			s.fatalf("a numbered frame is not acknowledged on a lossless mesh: %s", why)
		}
		total := s.total()
		if total.Retransmits != 0 || total.IgnoredAcks != 0 {
			s.fatalf("%d retransmissions, %d ignored acknowledgements on a lossless mesh", total.Retransmits, total.IgnoredAcks)
		}
		// The origin sends an update's element to both neighbors, who know
		// from its hello that it does and forward nothing: two crossings,
		// where BP alone made four.
		if elements := total.Sent.Elements - warm.Sent.Elements; elements != 2*writes {
			s.fatalf("%d elements on the wire for %d updates (%.3f each), want 2.00", elements, writes, float64(elements)/writes)
		}
		// One forward withheld per δ-group received, which may join several
		// updates of one key.
		if got := total.Withheld - warm.Withheld; got == 0 || got > 2*writes {
			s.fatalf("%d forwards withheld for %d updates, want up to one by each of the two receivers", got, writes)
		}
		var v codec.FrameView
		numbered, acking, ackOnly, groups, hellos := 0, 0, 0, 0, 0
		for _, f := range frames {
			if m, _, err := codec.DecodeMsg(f); err == nil {
				if _, ok := m.(*protocol.HelloMsg); ok {
					hellos++
					continue
				}
			}
			if err := codec.UnpackFrame(f, shards, &v); err != nil {
				s.fatalf("a frame on the wire does not unpack: %v", err)
			}
			for _, g := range v.Groups() {
				for i := range g.Items {
					groups++
					m, _ := g.Items[i].Msg()
					if _, delta := m.(*protocol.DeltaMsg); codec.IsAckTag(g.Items[i].Tag()) || g.Items[i].Tag() != setTag && g.Items[i].Tag() != loneTag || g.Items[i].Key == nil || !delta {
						s.fatalf("%T item with tag %d (key %q) on the wire, want only keyed δ-groups of GSets, tagged %d or %d", m, g.Items[i].Tag(), g.Items[i].Key, setTag, loneTag)
					}
				}
			}
			if v.Link.Seq.Seq != 0 {
				numbered++
			} else if v.NumItems() > 0 {
				s.fatalf("a frame of δ-groups without a sequence number")
			}
			if v.Link.Ack.Inc != 0 {
				acking++
				if v.NumItems() == 0 {
					ackOnly++
				}
			}
		}
		// Several updates of one key between two flushes travel as one
		// δ-group; never more groups than elements.
		if groups == 0 || groups > total.Sent.Elements {
			s.fatalf("%d δ-groups for %d elements", groups, total.Sent.Elements)
		}
		if numbered == 0 || acking == 0 || acking > numbered {
			s.fatalf("%d numbered frames, %d frames with an acknowledgement: every one answers at least one numbered frame", numbered, acking)
		}
		// NewSim's hellos went out before the frames were read.
		opening := len(s.nodes) * (len(s.nodes) - 1)
		if ackOnly != total.AckFrames || hellos != total.HelloFrames-opening || len(frames) != total.Frames-opening {
			s.fatalf("%d frames read, %d of them acknowledgements alone and %d hellos; the counters say %d, %d and %d",
				len(frames), ackOnly, hellos, total.Frames-opening, total.AckFrames, total.HelloFrames-opening)
		}
		for _, n := range s.nodes {
			for id, lk := range n.links {
				holdsNothing(t, n.cfg.ID+"→"+id, lk)
			}
		}
	})
}

// awaitFullReach waits until every store of a full mesh has heard from
// every neighbor that it reaches all the others.
func awaitFullReach(t *testing.T, stores []*Store) {
	t.Helper()
	eventually(t, 10*time.Second, "every store to hear that its neighbors reach each other", func() bool {
		for _, st := range stores {
			for _, ps := range st.Stats().Peers {
				if len(ps.Reaches) != len(stores)-2 {
					return false
				}
			}
		}
		return true
	})
}

// gatedConn blocks every write until the gate opens.
type gatedConn struct {
	net.Conn
	gate <-chan struct{}
}

func (c *gatedConn) Write(p []byte) (int, error) {
	<-c.gate
	return c.Conn.Write(p)
}

// TestLinkAckBacklogDrainsWhole: six passes' frames that queued up behind
// a blocked write all leave once it unblocks, none dropped, and every key
// they carry is applied, under either engine. Under the acked one each
// frame is acknowledged, by an acknowledgement of its own: the receiver
// holds none back.
func TestLinkAckBacklogDrainsWhole(t *testing.T) {
	const frames = 6
	for _, c := range []struct {
		name   string
		engine Engine
		acked  bool
	}{
		{"delta", EngineDelta, false},
		{"acked", EngineAcked, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			gate := make(chan struct{})
			stores, err := LoopbackClusterWith(2, StoreConfig{
				ID:        "g",
				Shards:    8,
				Engine:    c.engine,
				ObjType:   func(string) workload.Datatype { return workload.GCounterType{} },
				SyncEvery: time.Hour,
			}, func(i int, _ string, cfg *StoreConfig) {
				if i == 0 {
					cfg.Dial = func(id, addr string) (net.Conn, error) {
						conn, err := defaultDial(id, addr)
						if err != nil {
							return nil, err
						}
						return &gatedConn{Conn: conn, gate: gate}, nil
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range stores {
				st := st
				t.Cleanup(func() { st.Close() })
			}
			s, peer := stores[0], stores[1].ID()
			stores[1].locked(func() { stores[1].hold = 0 }) // acknowledge each frame at once
			// One frame per pass: the writer blocks on the first, so the
			// rest are queued when the gate opens.
			for i := 0; i < frames; i++ {
				s.Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("k%d", i), N: 1})
				s.locked(func() { s.writeFlush(s.now()) })
			}
			close(gate)
			if err := WaitConverged(stores, frames, 10*time.Second, nil); err != nil {
				t.Fatal(err)
			}
			if c.acked {
				eventually(t, 10*time.Second, "all six frames to be acknowledged", func() bool {
					ps := s.Stats().Peers[peer]
					return ps.InFlight == 0 && ps.LastAcked == frames
				})
				if got := stores[1].Stats().AckFrames; got != frames {
					t.Errorf("receiver sent %d acknowledgement frames, want one per frame (%d)", got, frames)
				}
			}
			if ps := s.Stats().Peers[peer]; ps.Enqueued != frames || ps.Dropped != 0 {
				t.Errorf("pipeline toward %s: %+v, want %d frames and none dropped", peer, ps, frames)
			}
			for i := 0; i < frames; i++ {
				key := fmt.Sprintf("k%d", i)
				if st, ok := stores[1].Get(key).(*crdt.GCounter); !ok || st.Value() != 1 {
					t.Errorf("%s on %s = %v, want 1", key, peer, stores[1].Get(key))
				}
			}
		})
	}
}

// TestLinkAckStatsAddUp: StoreStats.Add sums the acknowledgement, hello
// and catch-up counters and the frames in flight, and drops the sequence
// numbers and the announcements, which mean nothing across stores.
func TestLinkAckStatsAddUp(t *testing.T) {
	a := StoreStats{AckFrames: 2, IgnoredAcks: 1, HelloRefused: 1, Withheld: 10, CatchUpShards: 16, Peers: map[string]PeerStats{
		"p": {InFlight: 3, LastSent: 10, LastAcked: 7, LastReceived: 4, Reaches: []string{"q"}},
	}}
	b := StoreStats{AckFrames: 5, IgnoredAcks: 4, HelloRefused: 2, Withheld: 5, CatchUpShards: 16, Peers: map[string]PeerStats{
		"p": {InFlight: 1, LastSent: 2, LastAcked: 1, LastReceived: 9},
	}}
	a.Add(b)
	want := PeerStats{InFlight: 4}
	if a.AckFrames != 7 || a.IgnoredAcks != 5 || !reflect.DeepEqual(a.Peers["p"], want) {
		t.Errorf("sum: %d acknowledgement frames, %d ignored, peer %+v", a.AckFrames, a.IgnoredAcks, a.Peers["p"])
	}
	if a.HelloRefused != 3 || a.Withheld != 15 || a.CatchUpShards != 32 {
		t.Errorf("sum: %d hellos refused, %d withheld, %d catch-up shards", a.HelloRefused, a.Withheld, a.CatchUpShards)
	}
}
