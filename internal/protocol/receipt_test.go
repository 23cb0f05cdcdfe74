package protocol_test

import (
	"maps"
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
// sent, sorted.
func sentBy(e protocol.Engine) map[string][]string {
	sent := map[string][]string{}
	e.Sync(func(to string, m protocol.Msg) {
		sent[to] = append(sent[to], deltaOf(m).(*crdt.GSet).Sorted()...)
		slices.Sort(sent[to])
	})
	return sent
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
