package protocol_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// receiptEngines are the delta engines under Config.PruneOnReceipt, each
// with the message a neighbor's δ-group reaches it in: the plain engine's
// DeltaMsg, the acked engine's AckedDeltaMsg, and the whole-state DeltaMsg
// a store's drill hands the acked engine.
var receiptEngines = []struct {
	name    string
	factory protocol.Factory
	group   func(d lattice.State) protocol.Msg
}{
	{"delta", protocol.NewDeltaBPRR(), func(d lattice.State) protocol.Msg { return protocol.NewDeltaMsg(d) }},
	{"acked", protocol.NewDeltaAcked(true, true), func(d lattice.State) protocol.Msg {
		return protocol.NewAckedDeltaMsg(d, []uint64{1})
	}},
	{"acked/drill", protocol.NewDeltaAcked(true, true), func(d lattice.State) protocol.Msg { return protocol.NewDeltaMsg(d) }},
}

// receiptNode is b, whose neighbors are a, c and d.
func receiptNode(f protocol.Factory, prune bool) protocol.Engine {
	return f(protocol.Config{ID: "b", Neighbors: []string{"a", "c", "d"}, Nodes: []string{"a", "b", "c", "d"},
		Datatype: workload.GSetType{}, PruneOnReceipt: prune})
}

// sentBy runs one tick of e and returns the elements each neighbor was
// sent, sorted: a keyspace's, of every object in its batches.
func sentBy(e protocol.Engine) map[string][]string {
	sent := map[string][]string{}
	e.Sync(recordElements(sent))
	return sent
}

// flushedBy is sentBy for a Flush.
func flushedBy(e protocol.Engine) map[string][]string {
	sent := map[string][]string{}
	e.(protocol.Flusher).Flush(recordElements(sent))
	return sent
}

// recordElements is a Sender that adds what it is sent to sent.
func recordElements(sent map[string][]string) protocol.Sender {
	return func(to string, m protocol.Msg) {
		msgs := []protocol.Msg{m}
		if bm, ok := m.(*protocol.BatchMsg); ok {
			msgs = msgs[:0]
			for _, it := range bm.Items {
				msgs = append(msgs, it.Inner)
			}
		}
		for _, m := range msgs {
			sent[to] = append(sent[to], deltaOf(m).(*crdt.GSet).Sorted()...)
		}
		slices.Sort(sent[to])
	}
}

func discard(string, protocol.Msg) {}

func sameSends(got, want map[string][]string) bool {
	return maps.EqualFunc(got, want, slices.Equal[[]string])
}

// TestPruneOnReceiptLeavesTheHolderOut: b's own entry {x}, covered by the
// δ-group {x, y} that c sends, goes to a and d and not to c; y, which came
// from c, goes on to a and d as BP has it. Without the Config field the
// engine is Algorithm 1's and c is sent x.
func TestPruneOnReceiptLeavesTheHolderOut(t *testing.T) {
	for _, e := range receiptEngines {
		t.Run(e.name, func(t *testing.T) {
			for _, prune := range []bool{true, false} {
				b := receiptNode(e.factory, prune)
				b.LocalOp(addOp("x"))
				b.Deliver("c", e.group(crdt.NewGSet("x", "y")), discard)
				want := map[string][]string{"a": {"x", "y"}, "c": {"x"}, "d": {"x", "y"}}
				if prune {
					delete(want, "c")
				}
				if got := sentBy(b); !sameSends(got, want) {
					t.Errorf("prune %v: sent %v, want %v", prune, got, want)
				}
			}
		})
	}
}

// TestPruneOnReceiptMarksOnlyWhatACoveringNeighborSent: a δ-group that
// covers part of an entry marks nothing, and neither does the δ-group of
// a sender that is no neighbor; both still reach b's state.
func TestPruneOnReceiptMarksOnlyWhatACoveringNeighborSent(t *testing.T) {
	for _, e := range receiptEngines {
		t.Run(e.name, func(t *testing.T) {
			b := receiptNode(e.factory, true)
			b.Deliver("a", e.group(crdt.NewGSet("x", "z")), discard) // one entry {x, z}, from a
			b.Deliver("c", e.group(crdt.NewGSet("x")), discard)      // part of it
			b.Deliver("stranger", e.group(crdt.NewGSet("x", "z")), discard)
			want := map[string][]string{"c": {"x", "z"}, "d": {"x", "z"}}
			if got := sentBy(b); !sameSends(got, want) {
				t.Errorf("sent %v, want %v", got, want)
			}
		})
	}
}

// TestPruneOnReceiptAckedNeverResendsToTheHolder: an acked entry c's
// δ-group covered is never sent to c, first transmission or retransmission,
// and retires once a and d, the others it is owed to, acknowledge it. An
// entry every neighbor it is owed to has sent back retires unsent.
func TestPruneOnReceiptAckedNeverResendsToTheHolder(t *testing.T) {
	for _, e := range receiptEngines[1:] {
		t.Run(e.name, func(t *testing.T) {
			b := receiptNode(e.factory, true)
			b.LocalOp(addOp("x"))
			b.Deliver("c", e.group(crdt.NewGSet("x")), discard)
			for tick := 0; tick < 8; tick++ { // every send lost: retransmissions
				if got, want := sentBy(b), map[string][]string{"a": {"x"}, "d": {"x"}}; len(got) > 0 && !sameSends(got, want) {
					t.Fatalf("tick %d sent %v, want x to a and d or nothing", tick, got)
				}
			}
			if got := b.(interface{ Retransmits() uint64 }).Retransmits(); got == 0 {
				t.Fatal("no retransmission in eight ticks of loss")
			}
			b.Deliver("a", protocol.NewAckMsg([]uint64{1}), discard)
			if !b.(protocol.Flusher).Waiting() {
				t.Fatal("entry retired before d acknowledged it")
			}
			b.Deliver("d", protocol.NewAckMsg([]uint64{1}), discard)
			if fl := b.(protocol.Flusher); fl.Waiting() || b.Memory().BufferBytes != 0 {
				t.Errorf("entry a and d acknowledged and c holds still buffered: %d bytes", b.Memory().BufferBytes)
			}

			b.LocalOp(addOp("w"))
			for _, j := range []string{"a", "c", "d"} {
				b.Deliver(j, e.group(crdt.NewGSet("w", "v")), discard)
			}
			if got := sentBy(b); len(got) != 0 {
				t.Errorf("sent %v of entries every neighbor holds", got)
			}
			if fl := b.(protocol.Flusher); fl.Unsent() || fl.Waiting() {
				t.Errorf("entries every neighbor holds not retired: unsent=%v waiting=%v", fl.Unsent(), fl.Waiting())
			}
		})
	}
}

// reachNode is b pruning by receipt or not, with neighbors a, c and d,
// where c has announced it reaches a and d.
func reachNode(prune bool) protocol.Engine {
	cfg := protocol.Config{ID: "b", Neighbors: []string{"a", "c", "d"}, Nodes: []string{"a", "b", "c", "d"},
		Datatype: workload.GSetType{}, PruneOnReceipt: prune}
	cfg.Reach = protocol.NewReach(cfg.Neighbors)
	cfg.Reach.Set("c", []string{"a", "d"})
	return protocol.NewDeltaBPRR()(cfg)
}

// TestPruneOnReceiptDefersToTheFirstReceiver: c's δ-group {y} reaches a, b
// and d. Of b and d, b orders first and forwards to d at once; of a and
// b, a does, so b holds its forward to a through any number of flushes
// and its first tick, and makes it at its second unless a's own copy has
// arrived meanwhile. b's own write goes to all three at once.
func TestPruneOnReceiptDefersToTheFirstReceiver(t *testing.T) {
	for _, arrives := range []bool{false, true} {
		b := reachNode(true)
		b.Deliver("c", protocol.NewDeltaMsg(crdt.NewGSet("y")), discard)
		b.LocalOp(addOp("x"))
		if got, want := flushedBy(b), (map[string][]string{"a": {"x"}, "c": {"x"}, "d": {"x", "y"}}); !sameSends(got, want) {
			t.Fatalf("the flush sent %v, want %v", got, want)
		}
		fl := b.(protocol.Flusher)
		if fl.Unsent() || !fl.Waiting() {
			t.Fatalf("held forward: unsent=%v waiting=%v, want it a tick's and no flush's", fl.Unsent(), fl.Waiting())
		}
		if got := flushedBy(b); len(got) != 0 {
			t.Fatalf("a second flush sent %v, want nothing", got)
		}
		if got := sentBy(b); len(got) != 0 {
			t.Fatalf("the first tick sent %v, want nothing: the hold lasts through it", got)
		}
		want := map[string][]string{"a": {"y"}}
		if arrives {
			b.Deliver("a", protocol.NewDeltaMsg(crdt.NewGSet("y")), discard)
			want = map[string][]string{}
		}
		if got := sentBy(b); !sameSends(got, want) {
			t.Errorf("a's copy arrived %v: the second tick sent %v, want %v", arrives, got, want)
		}
		if fl.Unsent() || fl.Waiting() || b.Memory().BufferBytes != 0 {
			t.Errorf("a's copy arrived %v: entry still buffered after the second tick", arrives)
		}
	}
}

// reachKeyspace is reachNode's keyspace: b, pruning by receipt, where c
// has announced it reaches a and d, with a set for every key.
func reachKeyspace() *protocol.PerObject {
	cfg := protocol.Config{ID: "b", Neighbors: []string{"a", "c", "d"}, Nodes: []string{"a", "b", "c", "d"},
		PruneOnReceipt: true}
	cfg.Reach = protocol.NewReach(cfg.Neighbors)
	cfg.Reach.Set("c", []string{"a", "d"})
	return protocol.NewKeyspace(protocol.NewDeltaBPRR(), func(string) workload.Datatype { return workload.GSetType{} }, cfg)
}

// TestEndHoldsMakesTheHeldForward: b holds its forward of c's δ-group to a
// after the flush that sends it to d. EndHolds toward d, which is held
// nothing, ends nothing; toward a, or toward every neighbor, it ends the
// hold, and the next Flush makes the forward, before any tick. Once a has
// sent the δ-group back, there is no hold left to end.
func TestEndHoldsMakesTheHeldForward(t *testing.T) {
	for _, to := range []string{"a", ""} {
		for _, arrives := range []bool{false, true} {
			b := reachKeyspace()
			b.DeliverObject("c", []byte("k"), protocol.NewDeltaMsg(crdt.NewGSet("y")), discard)
			if got := flushedBy(b); !sameSends(got, map[string][]string{"d": {"y"}}) {
				t.Fatalf("the flush sent %v, want y to d alone", got)
			}
			if !b.Holds() || b.Unsent() {
				t.Fatalf("after the flush: holds=%v unsent=%v, want the forward to a held", b.Holds(), b.Unsent())
			}
			if b.EndHolds("d") || b.EndHolds("stranger") || !b.Holds() {
				t.Fatal("EndHolds toward a neighbor held nothing ended a hold")
			}
			want := map[string][]string{"a": {"y"}}
			if arrives {
				b.DeliverObject("a", []byte("k"), protocol.NewDeltaMsg(crdt.NewGSet("y")), discard)
				want = map[string][]string{}
			}
			if got := b.EndHolds(to); got != !arrives || b.Holds() || b.Unsent() != !arrives {
				t.Fatalf("EndHolds(%q), a's copy arrived %v: ended %v, then holds=%v unsent=%v", to, arrives, got, b.Holds(), b.Unsent())
			}
			if got := flushedBy(b); !sameSends(got, want) {
				t.Errorf("EndHolds(%q), a's copy arrived %v: the flush sent %v, want %v", to, arrives, got, want)
			}
			if got := sentBy(b); len(got) != 0 || b.Waiting() {
				t.Errorf("EndHolds(%q), a's copy arrived %v: the tick sent %v, waiting=%v", to, arrives, got, b.Waiting())
			}
		}
	}
}

// TestPruneOnReceiptOffIsAlgorithm1: without Config.PruneOnReceipt the
// delta engine ignores Config.Reach. Over seeded histories of local
// updates, deliveries, flushes and ticks, an engine told that every
// neighbor reaches every other makes exactly the sends of one told
// nothing, and an entry leaves the buffer with the step that sends it.
func TestPruneOnReceiptOffIsAlgorithm1(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		told, untold := reachNode(false), receiptNode(protocol.NewDeltaBPRR(), false)
		neighbors := []string{"a", "c", "d"}
		for step := 0; step < 300; step++ {
			switch p := rng.Intn(10); {
			case p < 4:
				op := addOp(fmt.Sprintf("e%d", rng.Intn(40)))
				told.LocalOp(op)
				untold.LocalOp(op)
			case p < 7:
				from := neighbors[rng.Intn(3)]
				d := crdt.NewGSet(fmt.Sprintf("e%d", rng.Intn(40)), fmt.Sprintf("e%d", rng.Intn(40)))
				told.Deliver(from, protocol.NewDeltaMsg(d.Clone()), discard)
				untold.Deliver(from, protocol.NewDeltaMsg(d), discard)
			default:
				pass := sentBy
				if p == 9 {
					pass = flushedBy
				}
				if got, want := pass(told), pass(untold); !sameSends(got, want) {
					t.Fatalf("seed %d step %d: sent %v, Algorithm 1 sends %v", seed, step, got, want)
				}
				if told.(protocol.Flusher).Waiting() {
					t.Fatalf("seed %d step %d: an entry outlived the step that sent it", seed, step)
				}
			}
		}
	}
}

// TestPruneOnReceiptPastTheWord: of b's 70 neighbors, n66 — past the
// inline word of an entry's held set — sends b's own entry back before
// b's first pass. Under either engine the entry goes to the 69 others and
// not to n66, and leaves b's buffer once every one of them holds it: at
// the end of the pass under the plain engine, with the last of the 69
// acknowledgements under the acked one.
func TestPruneOnReceiptPastTheWord(t *testing.T) {
	neighbors := make([]string, 70)
	for i := range neighbors {
		neighbors[i] = fmt.Sprintf("n%02d", i)
	}
	for _, e := range receiptEngines[:2] {
		t.Run(e.name, func(t *testing.T) {
			b := e.factory(protocol.Config{ID: "b", Neighbors: neighbors, Nodes: append([]string{"b"}, neighbors...),
				Datatype: workload.GSetType{}, PruneOnReceipt: true})
			b.LocalOp(addOp("x"))
			b.Deliver("n66", e.group(crdt.NewGSet("x")), discard)
			if got := sentBy(b); len(got) != 69 || got["n66"] != nil || !slices.Equal(got["n69"], []string{"x"}) {
				t.Fatalf("sent x to %d neighbors (n66: %v), want the 69 but n66", len(got), got["n66"])
			}
			fl := b.(protocol.Flusher)
			if e.name == "delta" {
				if fl.Waiting() {
					t.Error("entry still buffered after the pass that sent it to every neighbor but its holder")
				}
				return
			}
			for _, j := range neighbors[:69] {
				if !fl.Waiting() {
					t.Fatalf("entry retired before %s acknowledged it", j)
				}
				if j != "n66" {
					b.Deliver(j, protocol.NewAckMsg([]uint64{1}), discard)
				}
			}
			b.Deliver("n69", protocol.NewAckMsg([]uint64{1}), discard)
			if fl.Waiting() {
				t.Error("entry every neighbor holds still buffered")
			}
		})
	}
}

// TestEmptiedQueuedObjectIsQueuedAgain: under the acked engine, pruning by
// receipt, a neighbor's δ-group that covers an object's unsent write
// empties its buffer while the object is queued for the next
// first-transmission pass. The tick that follows does not visit the
// object and leaves it off the queue; the object's next write must queue
// it again, so that the next first-transmission pass ships that write.
func TestEmptiedQueuedObjectIsQueuedAgain(t *testing.T) {
	cfg := protocol.Config{ID: "a", Neighbors: []string{"b"}, Nodes: []string{"a", "b"}, PruneOnReceipt: true}
	ks := protocol.NewKeyspace(protocol.NewDeltaAcked(true, true), func(string) workload.Datatype { return workload.GSetType{} }, cfg)
	ks.LocalOp(workload.Add("k", "x"))
	ks.DeliverObject("b", []byte("k"), protocol.NewDeltaMsg(crdt.NewGSet("x")), discard)
	ks.LocalOp(workload.Add("j", "y"))
	var ticked []string
	ks.Pass(true, func(key string, _ int, _ lattice.State, _ []uint64, _ bool) { ticked = append(ticked, key) })
	if !slices.Equal(ticked, []string{"j"}) {
		t.Fatalf("the tick shipped %v, want j alone: b holds k's write", ticked)
	}
	ks.LocalOp(workload.Add("k", "z"))
	if !ks.Unsent() {
		t.Fatal("k's second write left nothing unsent")
	}
	var flushed []string
	ks.Pass(false, func(key string, _ int, d lattice.State, _ []uint64, _ bool) {
		flushed = append(flushed, fmt.Sprintf("%s%v", key, d))
	})
	if want := []string{"k" + fmt.Sprint(crdt.NewGSet("z"))}; !slices.Equal(flushed, want) {
		t.Fatalf("the pass after k's second write shipped %v, want %v", flushed, want)
	}
}
