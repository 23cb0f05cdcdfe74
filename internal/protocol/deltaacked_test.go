package protocol_test

import (
	"slices"
	"testing"

	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

func TestAckedDeltaBasicExchange(t *testing.T) {
	a, b := twoNodes(protocol.NewDeltaAcked(true, true), workload.GSetType{})
	engines := map[string]protocol.Engine{"a": a, "b": b}
	a.LocalOp(addOp("x"))
	sent := pump(engines, "a")
	// One delta out, one ack back.
	kinds := map[string]int{}
	for _, m := range sent {
		kinds[m.Kind()]++
	}
	if kinds["delta-acked"] != 1 || kinds["ack"] != 1 {
		t.Fatalf("message kinds = %v, want 1 delta-acked + 1 ack", kinds)
	}
	if !b.State().(*crdt.GSet).Contains("x") {
		t.Error("delta not applied")
	}
	// Entry fully acked: buffer empty, nothing resent.
	if m := a.Memory(); m.BufferBytes != 0 {
		t.Errorf("acked entry not pruned: buffer=%d", m.BufferBytes)
	}
	if again := pump(engines, "a"); len(again) != 0 {
		t.Errorf("acked entry resent: %d messages", len(again))
	}
}

func TestAckedDeltaRetransmitsUntilAcked(t *testing.T) {
	a, b := twoNodes(protocol.NewDeltaAcked(true, true), workload.GSetType{})
	a.LocalOp(addOp("x"))

	// Simulate loss: every send is dropped. The entry goes out on the
	// first tick, again one full tick later, then after 2, 4 and 8
	// ticks, and every 8 from there on.
	var sentOn []int
	for tick := 1; tick <= 31; tick++ {
		a.Sync(func(string, protocol.Msg) { sentOn = append(sentOn, tick) })
		// A flush between two ticks never sends anything twice.
		a.(protocol.Flusher).Flush(func(string, protocol.Msg) {
			t.Errorf("flush after tick %d re-sent an entry", tick)
		})
	}
	if want := []int{1, 2, 4, 8, 16, 24}; !slices.Equal(sentOn, want) {
		t.Fatalf("sent on ticks %v, want %v", sentOn, want)
	}
	if got := a.(interface{ Retransmits() uint64 }).Retransmits(); got != 5 {
		t.Errorf("Retransmits = %d, want 5", got)
	}
	if m := a.Memory(); m.BufferBytes == 0 {
		t.Fatal("entry pruned without any ack")
	}

	// The next retransmission (tick 32) is delivered normally.
	engines := map[string]protocol.Engine{"a": a, "b": b}
	if sent := pump(engines, "a"); len(sent) != 2 {
		t.Fatalf("tick 32 sent %d messages, want the entry and its ack", len(sent))
	}
	if !b.State().(*crdt.GSet).Contains("x") {
		t.Error("retransmission did not deliver")
	}
	if m := a.Memory(); m.BufferBytes != 0 {
		t.Error("entry not pruned after ack")
	}
}

func TestAckedDeltaFlushRetransmitsAfterAFullTick(t *testing.T) {
	a, _ := twoNodes(protocol.NewDeltaAcked(true, true), workload.GSetType{})
	fl := a.(protocol.Flusher)
	if fl.Unsent() || fl.Waiting() {
		t.Fatal("fresh engine has something to send")
	}
	a.LocalOp(addOp("x"))
	if !fl.Unsent() || !fl.Waiting() {
		t.Fatal("a local op left nothing unsent")
	}
	sent := 0
	count := func(string, protocol.Msg) { sent++ }
	fl.Flush(count) // the first transmission, lost
	if sent != 1 || fl.Unsent() || !fl.Waiting() {
		t.Fatalf("after the flush: sent=%d unsent=%v waiting=%v", sent, fl.Unsent(), fl.Waiting())
	}
	fl.Flush(count)
	// The tick right after the flush does not complete a full tick since
	// the send; the one after it does.
	a.Sync(count)
	if sent != 1 {
		t.Fatalf("re-sent %d times less than a full tick after the send", sent-1)
	}
	a.Sync(count)
	if sent != 2 {
		t.Fatalf("sent = %d, want the retransmission on the second tick", sent)
	}
	// An entry written while the first waits is a first transmission of
	// its own: the next flush ships it, alone.
	a.LocalOp(addOp("y"))
	fl.Flush(func(_ string, m protocol.Msg) {
		sent++
		if d := m.(*protocol.AckedDeltaMsg); d.Delta.Elements() != 1 || len(d.Seqs) != 1 {
			t.Errorf("flush shipped %d elements under seqs %v, want only the new entry", d.Delta.Elements(), d.Seqs)
		}
	})
	if sent != 3 {
		t.Fatalf("sent = %d, want the new entry's first transmission", sent)
	}
}

func TestAckedDeltaAcksRedundantGroups(t *testing.T) {
	// Even a fully redundant δ-group must be acknowledged, or the sender
	// would retransmit it forever.
	a, b := twoNodes(protocol.NewDeltaAcked(false, true), workload.GSetType{})
	engines := map[string]protocol.Engine{"a": a, "b": b}
	a.LocalOp(addOp("x"))
	pump(engines, "a")
	// b now has x; make a buffer x again via b's back-propagation...
	// (no BP in this variant) and ensure no infinite ping-pong: run a
	// few rounds and check quiescence.
	for i := 0; i < 4; i++ {
		pump(engines, "b")
		pump(engines, "a")
	}
	if sent := pump(engines, "a"); len(sent) != 0 {
		t.Errorf("system did not quiesce: %d messages still flowing", len(sent))
	}
	if sent := pump(engines, "b"); len(sent) != 0 {
		t.Errorf("system did not quiesce: %d messages still flowing", len(sent))
	}
}

func TestAckedDeltaBPSkipsOriginAck(t *testing.T) {
	// With BP, an entry received from j never needs j's ack: it is
	// pruned once all other neighbors acknowledge.
	nodes := []string{"a", "b", "c"}
	f := protocol.NewDeltaAcked(true, false)
	engines := map[string]protocol.Engine{
		"a": f(protocol.Config{ID: "a", Neighbors: []string{"b"}, Nodes: nodes, Datatype: workload.GSetType{}}),
		"b": f(protocol.Config{ID: "b", Neighbors: []string{"a", "c"}, Nodes: nodes, Datatype: workload.GSetType{}}),
		"c": f(protocol.Config{ID: "c", Neighbors: []string{"b"}, Nodes: nodes, Datatype: workload.GSetType{}}),
	}
	engines["a"].LocalOp(addOp("x"))
	pump(engines, "a") // a→b, acked
	pump(engines, "b") // b→c only (BP skips a), acked by c
	if m := engines["b"].Memory(); m.BufferBytes != 0 {
		t.Errorf("b's entry should be pruned after c's ack alone (BP), buffer=%d", m.BufferBytes)
	}
	if !engines["c"].State().(*crdt.GSet).Contains("x") {
		t.Error("x did not reach c")
	}
}

func TestAckedDeltaReachSkipsAnnouncedNeighbors(t *testing.T) {
	// BP's sibling: an entry received from a never needs the ack of a
	// neighbor a has announced it reaches. b, in a mesh with a, c and d,
	// has heard a say it reaches c: what a sends goes on to d alone, is
	// pruned on d's ack alone, and is never buffered at all once a
	// reaches d too. What b writes itself is owed to all three whatever
	// anybody announced.
	nodes := []string{"a", "b", "c", "d"}
	neighbors := []string{"a", "c", "d"}
	reach := protocol.NewReach(neighbors)
	if left := reach.Set("a", []string{"c"}); left != nil {
		t.Fatalf("first announcement: %v left the set", left)
	}
	b := protocol.NewDeltaAcked(true, true)(protocol.Config{ID: "b", Neighbors: neighbors, Nodes: nodes, Datatype: workload.GSetType{}, Reach: reach})
	discard := func(string, protocol.Msg) {}
	sentTo := func() map[string]int {
		sent := map[string]int{}
		b.Sync(func(to string, m protocol.Msg) { sent[to] += m.Cost().Elements })
		return sent
	}
	b.Deliver("a", protocol.NewAckedDeltaMsg(crdt.NewGSet("x"), []uint64{1}), discard)
	if got := sentTo(); len(got) != 1 || got["d"] != 1 {
		t.Fatalf("a's entry went to %v, want d alone: a is its origin and reaches c", got)
	}
	b.Deliver("d", protocol.NewAckMsg([]uint64{1}), discard)
	if m := b.Memory(); m.BufferBytes != 0 {
		t.Errorf("entry not pruned on d's ack alone: buffer=%d", m.BufferBytes)
	}
	if got := reach.Withheld(); got != 1 {
		t.Errorf("Withheld = %d, want the one forward to c", got)
	}
	// An entry buffered for d is retired, unacknowledged, by the tick
	// after a announces that it reaches d as well, and counts as no
	// retransmission.
	b.Deliver("a", protocol.NewAckedDeltaMsg(crdt.NewGSet("y"), []uint64{2}), discard)
	sentTo() // first transmission, to d, lost
	reach.Set("a", []string{"c", "d", "b", "nobody", "a"})
	if got := reach.Of("a"); !slices.Equal(got, []string{"c", "d"}) {
		t.Fatalf("a reaches %v, want c and d: the neighbors among what it named, itself excepted", got)
	}
	for tick := 0; tick < 3; tick++ {
		if got := sentTo(); len(got) != 0 {
			t.Fatalf("tick %d re-sent %v after a announced d", tick, got)
		}
	}
	if m := b.Memory(); m.BufferBytes != 0 {
		t.Errorf("entry nobody is owed any more still buffered: %d bytes", m.BufferBytes)
	}
	if got := b.(interface{ Retransmits() uint64 }).Retransmits(); got != 0 {
		t.Errorf("Retransmits = %d, want 0", got)
	}
	b.Deliver("a", protocol.NewAckedDeltaMsg(crdt.NewGSet("z"), []uint64{3}), discard)
	if fl := b.(protocol.Flusher); fl.Unsent() || fl.Waiting() || b.Memory().BufferBytes != 0 {
		t.Error("an entry whose origin reaches every other neighbor was buffered")
	}
	b.LocalOp(addOp("w"))
	if got := sentTo(); len(got) != 3 {
		t.Errorf("b's own entry went to %v, want all three neighbors", got)
	}
	// When a stops reaching c, c is reported as having left, and owed
	// a's entries again.
	if left := reach.Set("a", []string{"d"}); !slices.Equal(left, []string{"c"}) {
		t.Errorf("a's shrinking announcement: %v left the set, want c", left)
	}
	if left := reach.Set("stranger", []string{"c"}); left != nil || reach.Of("stranger") != nil {
		t.Error("a store that is no neighbor got an entry in the table")
	}
}

// TestReachLeftNamesOnlyWithheldNeighbors: Set reports a neighbor as
// having left an origin's set only if an engine withheld a forward from it
// on that origin's word since it joined. b, with neighbors a, c and d,
// buffers a's entry x for c and d; then a announces c. Under the acked
// engine the next tick lets c go unsent — x was buffered before the word,
// and no forward was counted as withheld — so c leaving a's set is
// reported, once: left again, with nothing withheld since it joined, it is
// not. The plain engine only defers on the table, and has nothing
// reported.
func TestReachLeftNamesOnlyWithheldNeighbors(t *testing.T) {
	neighbors := []string{"a", "c", "d"}
	discard := func(string, protocol.Msg) {}
	for _, e := range []struct {
		name     string
		factory  protocol.Factory
		group    protocol.Msg
		reported []string
	}{
		{"acked", protocol.NewDeltaAcked(true, true), protocol.NewAckedDeltaMsg(crdt.NewGSet("x"), []uint64{1}), []string{"c"}},
		{"delta", protocol.NewDeltaBPRR(), protocol.NewDeltaMsg(crdt.NewGSet("x")), nil},
	} {
		reach := protocol.NewReach(neighbors)
		b := e.factory(protocol.Config{ID: "b", Neighbors: neighbors, Nodes: []string{"a", "b", "c", "d"},
			Datatype: workload.GSetType{}, Reach: reach, PruneOnReceipt: true})
		b.Deliver("a", e.group, discard)
		if left := reach.Set("a", []string{"c"}); left != nil {
			t.Fatalf("%s: a's first announcement reported %v", e.name, left)
		}
		b.Sync(discard)
		if left := reach.Set("a", nil); !slices.Equal(left, e.reported) {
			t.Errorf("%s: a stopped reaching c, %v reported, want %v", e.name, left, e.reported)
		}
		reach.Set("a", []string{"c", "d"})
		if left := reach.Set("a", []string{"d"}); left != nil {
			t.Errorf("%s: c left again with nothing withheld since it joined, %v reported", e.name, left)
		}
	}
}

func TestAckedDeltaMergesRepairDeltaMsg(t *testing.T) {
	// The store's digest anti-entropy ships full object states as plain
	// DeltaMsgs outside the acked sequence space. The engine must merge
	// what inflates and reply with nothing — there are no sequence
	// numbers to acknowledge.
	_, b := twoNodes(protocol.NewDeltaAcked(true, true), workload.GSetType{})
	full := crdt.NewGSet("r1", "r2")
	var replies []protocol.Msg
	b.Deliver("a", protocol.NewDeltaMsg(full), func(_ string, m protocol.Msg) {
		replies = append(replies, m)
	})
	if len(replies) != 0 {
		t.Errorf("repair delta triggered %d replies, want none", len(replies))
	}
	s := b.State().(*crdt.GSet)
	if !s.Contains("r1") || !s.Contains("r2") {
		t.Error("repair delta not merged")
	}
	// With BP and "a" as the only neighbor there is nobody to propagate
	// the repair to: buffering it would leak, since nothing ever sends
	// (and so nothing ever acks and prunes) the entry.
	if m := b.Memory(); m.BufferBytes != 0 {
		t.Errorf("repair with no audience buffered anyway: %d bytes", m.BufferBytes)
	}
}

func TestAckedDeltaBuffersRepairForPropagation(t *testing.T) {
	// With a second neighbor the repair must be buffered and flow
	// onwards: under BP it is resent to every neighbor except its
	// origin, until acknowledged.
	f := protocol.NewDeltaAcked(true, true)
	nodes := []string{"a", "b", "c"}
	b := f(protocol.Config{ID: "b", Neighbors: []string{"a", "c"}, Nodes: nodes, Datatype: workload.GSetType{}})
	b.Deliver("a", protocol.NewDeltaMsg(crdt.NewGSet("r1")), func(string, protocol.Msg) {
		t.Error("repair delta triggered a reply")
	})
	if m := b.Memory(); m.BufferBytes == 0 {
		t.Error("repair delta not buffered for propagation")
	}
	sent := map[string]int{}
	b.Sync(func(to string, m protocol.Msg) { sent[to]++ })
	if sent["c"] != 1 || sent["a"] != 0 {
		t.Errorf("repair propagation = %v, want one message to c only (BP skips origin)", sent)
	}
	// A redundant repair (nothing new) must not grow the buffer.
	before := b.Memory().BufferBytes
	b.Deliver("a", protocol.NewDeltaMsg(crdt.NewGSet("r1")), func(string, protocol.Msg) {
		t.Error("redundant repair triggered a reply")
	})
	if after := b.Memory().BufferBytes; after != before {
		t.Errorf("redundant repair grew the buffer: %d -> %d", before, after)
	}
}

// TestReachCovers: an origin covers a node's other neighbors once it has
// announced every one of them — itself excepted, whatever else it names —
// and no longer when it drops one. A stranger covers nothing, and a node's
// only neighbor covers the nobody left.
func TestReachCovers(t *testing.T) {
	reach := protocol.NewReach([]string{"a", "c", "d"})
	for _, tc := range []struct {
		announced []string
		want      bool
	}{
		{nil, false},
		{[]string{"c"}, false},
		{[]string{"c", "d"}, true},
		{[]string{"a", "b", "d", "c", "nobody"}, true},
		{[]string{"d"}, false},
	} {
		reach.Set("a", tc.announced)
		if got := reach.Covers("a"); got != tc.want {
			t.Errorf("a announced %v: Covers = %v, want %v", tc.announced, got, tc.want)
		}
	}
	if reach.Covers("z") {
		t.Error("a stranger covers the neighbors")
	}
	if !protocol.NewReach([]string{"a"}).Covers("a") {
		t.Error("a node's only neighbor does not cover the others, of which there are none")
	}
}

func TestAckedDeltaReachForwardsRepairPastAnnounced(t *testing.T) {
	// The reach sibling of the test above: a repair δ-group from a is
	// forwarded to exactly the neighbors outside what a reaches.
	nodes := []string{"a", "b", "c", "d"}
	neighbors := []string{"a", "c", "d"}
	reach := protocol.NewReach(neighbors)
	reach.Set("a", []string{"b", "c"})
	b := protocol.NewDeltaAcked(true, true)(protocol.Config{ID: "b", Neighbors: neighbors, Nodes: nodes, Datatype: workload.GSetType{}, Reach: reach})
	b.Deliver("a", protocol.NewDeltaMsg(crdt.NewGSet("r1")), func(string, protocol.Msg) {
		t.Error("repair delta triggered a reply")
	})
	sent := map[string]int{}
	b.Sync(func(to string, m protocol.Msg) { sent[to]++ })
	if len(sent) != 1 || sent["d"] != 1 {
		t.Errorf("repair propagation = %v, want one message to d only: a is the origin and reaches c", sent)
	}
}

func TestAckedDeltaTwoNodeBufferDrains(t *testing.T) {
	// Regression: in a 2-node BP cluster, an entry received from the
	// only neighbor is needed by nobody — it must not be buffered, or it
	// would sit unacked (Sync never sends it back to its origin) and the
	// δ-buffer would never drain.
	a, b := twoNodes(protocol.NewDeltaAcked(true, true), workload.GSetType{})
	engines := map[string]protocol.Engine{"a": a, "b": b}
	a.LocalOp(addOp("x"))
	pump(engines, "a")
	if !b.State().(*crdt.GSet).Contains("x") {
		t.Fatal("delta not delivered")
	}
	if m := b.Memory(); m.BufferBytes != 0 {
		t.Errorf("receiver buffered an entry it can never send: %d bytes", m.BufferBytes)
	}
	if m := a.Memory(); m.BufferBytes != 0 {
		t.Errorf("sender's entry not pruned after ack: %d bytes", m.BufferBytes)
	}
}

// flushSeqs runs a Flush of a keyspace whose one neighbor is "b" and
// returns, per key, the seqs the δ-groups it shipped cover.
func flushSeqs(t *testing.T, e *protocol.PerObject) map[string][]uint64 {
	t.Helper()
	seqs := map[string][]uint64{}
	e.Flush(func(to string, m protocol.Msg) {
		for _, it := range m.(*protocol.BatchMsg).Items {
			seqs[it.Key] = append(seqs[it.Key], it.Inner.(*protocol.AckedDeltaMsg).Seqs...)
		}
	})
	return seqs
}

// buffered counts the entries a keyspace of acked objects with one
// neighbor holds: each unacknowledged one is 8 bytes of metadata.
func buffered(e protocol.Engine) int { return e.Memory().MetadataBytes / 8 }

// TestAckedKeyspaceNeverReusesASeq: an object's buffer is released when
// its last entry is acknowledged, and the seq of its next entry is still
// one it never had, so a late acknowledgement of the first entry cannot
// retire the second. Objects of one keyspace never share a seq either:
// each key's acknowledgements retire its own entries and nobody else's.
func TestAckedKeyspaceNeverReusesASeq(t *testing.T) {
	discard := func(string, protocol.Msg) {}
	t.Run("after the buffer empties", func(t *testing.T) {
		e := newKeyspace(protocol.NewDeltaAcked(true, true))
		e.LocalOp(workload.Add("k", "x"))
		first := flushSeqs(t, e)["k"]
		e.DeliverObject("b", []byte("k"), protocol.NewAckMsg(first), discard)
		if n := buffered(e); n != 0 || e.Waiting() {
			t.Fatalf("%d entries buffered after the only one was acknowledged", n)
		}
		e.LocalOp(workload.Add("k", "y"))
		second := flushSeqs(t, e)["k"]
		if len(second) != 1 || slices.Contains(first, second[0]) {
			t.Fatalf("second entry shipped under seqs %v, the first under %v", second, first)
		}
		e.DeliverObject("b", []byte("k"), protocol.NewAckMsg(first), discard) // late
		if n := buffered(e); n != 1 {
			t.Fatalf("a late acknowledgement of the first entry left %d entries, want the second", n)
		}
		e.DeliverObject("b", []byte("k"), protocol.NewAckMsg(second), discard)
		if n := buffered(e); n != 0 {
			t.Fatalf("%d entries buffered after the second was acknowledged", n)
		}
	})
	t.Run("two keys interleaved", func(t *testing.T) {
		e := newKeyspace(protocol.NewDeltaAcked(true, true))
		for _, elem := range []string{"1", "2"} {
			e.LocalOp(workload.Add("k1", elem))
			e.LocalOp(workload.Add("k2", elem))
		}
		seqs := flushSeqs(t, e)
		k1, k2 := seqs["k1"], seqs["k2"]
		if len(k1) != 2 || len(k2) != 2 || slices.ContainsFunc(k1, func(s uint64) bool { return slices.Contains(k2, s) }) {
			t.Fatalf("k1 shipped under seqs %v and k2 under %v, want two each, none shared", k1, k2)
		}
		for _, step := range []struct {
			key  string
			seqs []uint64
			want int
		}{
			{"k2", k1, 4}, // k1's seqs name nothing of k2's
			{"k1", k1, 2},
			{"k1", k2, 2},
			{"k2", k2[:1], 1},
			{"k2", k2, 0},
		} {
			e.DeliverObject("b", []byte(step.key), protocol.NewAckMsg(step.seqs), discard)
			if n := buffered(e); n != step.want {
				t.Fatalf("acknowledging %v for %s left %d entries buffered, want %d", step.seqs, step.key, n, step.want)
			}
		}
	})
}

// TestAckedDeltaResendsAfterTheWaitItIsTold: a keyspace told that its
// neighbor's acknowledgement takes three ticks sends an entry again three
// ticks after its first send, then six, then every eight (the cap), and
// reads the wait on every tick: lengthened while the entry is in flight, it
// holds the next resend back. An acknowledgement of a message that carried
// first sends only, arriving after a resend, shows the resend spurious; one
// of the resend does not.
func TestAckedDeltaResendsAfterTheWaitItIsTold(t *testing.T) {
	e := newKeyspace(protocol.NewDeltaAcked(true, true))
	waits := []uint8{3}
	e.ResendAfter(waits)
	e.LocalOp(workload.Add("k", "x"))
	var sentOn []int
	var retry []bool
	for tick := 1; tick <= 26; tick++ {
		e.Sync(func(_ string, m protocol.Msg) {
			sentOn = append(sentOn, tick)
			retry = append(retry, m.(*protocol.BatchMsg).Items[0].Inner.(*protocol.AckedDeltaMsg).Retry)
		})
	}
	if want := []int{1, 4, 10, 18, 26}; !slices.Equal(sentOn, want) {
		t.Fatalf("sent on ticks %v, want %v", sentOn, want)
	}
	if want := []bool{false, true, true, true, true}; !slices.Equal(retry, want) {
		t.Fatalf("messages marked as carrying a resend: %v, want %v", retry, want)
	}
	waits[0] = 20
	for tick := 27; tick <= 45; tick++ {
		e.Sync(func(string, protocol.Msg) { t.Errorf("tick %d: sent again inside a wait of 20 ticks", tick) })
	}
	drop := func(string, protocol.Msg) {}
	e.DeliverObject("b", []byte("k"), &protocol.AckMsg{Seqs: []uint64{1}, Retry: true}, drop)
	if got := e.SpuriousRetransmits(); got != 0 || e.Waiting() {
		t.Fatalf("an acknowledgement of a resend: %d spurious, waiting %v; want 0 and the entry retired", got, e.Waiting())
	}

	e.LocalOp(workload.Add("k", "y"))
	e.Sync(drop) // the first send
	waits[0] = 1
	e.Sync(drop) // and one tick later, the resend
	e.DeliverObject("b", []byte("k"), &protocol.AckMsg{Seqs: []uint64{2}}, drop)
	if got, resent := e.SpuriousRetransmits(), e.Retransmits(); got != 1 || resent != 5 || e.Waiting() {
		t.Fatalf("an acknowledgement of the first send after a resend: %d spurious of %d resends, waiting %v; want 1 of 5, the entry retired",
			got, resent, e.Waiting())
	}
}
