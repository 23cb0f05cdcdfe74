package core_test

import (
	"fmt"
	"testing"

	"crdtsync/internal/core"
	"crdtsync/internal/lattice"
)

func TestBufferGroupAll(t *testing.T) {
	var b core.Buffer
	if g := b.GroupAll(); g != nil {
		t.Fatalf("empty buffer group = %v, want nil", g)
	}
	b.Add(lattice.NewSet("a"), "n1")
	b.Add(lattice.NewSet("b"), "n2")
	g := b.GroupAll()
	if g.Elements() != 2 {
		t.Fatalf("group = %v, want {a,b}", g)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
}

// bp is what Group owes a neighbor under BP alone: every entry whose
// origin is not that neighbor.
func bp(neighbors []string) func(origin string, i int) bool {
	return func(origin string, i int) bool { return origin != neighbors[i] }
}

// all owes every neighbor every entry.
func all(string, int) bool { return true }

func TestBufferGroupExcludingImplementsBP(t *testing.T) {
	neighbors := []string{"n1", "n2"}
	var b core.Buffer
	b.Add(lattice.NewSet("a"), "n1") // came from n1
	b.Add(lattice.NewSet("b"), "n2") // came from n2
	b.Add(lattice.NewSet("c"), "me") // local mutation

	// Sending to n1 must not back-propagate n1's own δ-group.
	g := b.Group(0, bp(neighbors), nil).(*lattice.Set)
	if g.Contains("a") {
		t.Error("BP violated: δ-group sent back to its origin")
	}
	if !g.Contains("b") || !g.Contains("c") {
		t.Errorf("BP filtered too much: %v", g)
	}

	// A neighbor that contributed everything gets nothing.
	var only core.Buffer
	only.Add(lattice.NewSet("x"), "n1")
	if g := only.Group(0, bp(neighbors), nil); g != nil {
		t.Errorf("group = %v, want nil when all entries excluded", g)
	}
}

func TestBufferIgnoresBottom(t *testing.T) {
	var b core.Buffer
	b.Add(lattice.NewSet(), "n1")
	b.Add(nil, "n2")
	if b.Len() != 0 {
		t.Fatalf("bottom/nil deltas buffered: len=%d", b.Len())
	}
}

func TestBufferClear(t *testing.T) {
	var b core.Buffer
	b.Add(lattice.NewSet("a"), "n1")
	b.Clear()
	if b.Len() != 0 || b.GroupAll() != nil {
		t.Fatal("Clear did not empty the buffer")
	}
	// The δ-groups are garbage once sent: Clear must let go of the array
	// that held them, not truncate it over them.
	if cap(b.Entries()) != 0 {
		t.Fatalf("Clear kept a backing array of %d entries", cap(b.Entries()))
	}
	b.Add(lattice.NewSet("b"), "n1")
	if b.Len() != 1 {
		t.Fatal("a cleared buffer is not reusable")
	}
}

func TestBufferAccounting(t *testing.T) {
	var b core.Buffer
	b.Add(lattice.NewSet("ab"), "n1")
	b.Add(lattice.NewSet("c", "d"), "n2")
	// 2 bytes ("ab") + 2 bytes ("c","d") + origin tags 2+2.
	if got := b.SizeBytes(); got != 2+2+2+2 {
		t.Errorf("SizeBytes = %d, want 8", got)
	}
}

func TestBufferEntriesExposed(t *testing.T) {
	var b core.Buffer
	b.Add(lattice.NewSet("a"), "n1")
	es := b.Entries()
	if len(es) != 1 || es[0].Origin != "n1" {
		t.Fatalf("Entries = %+v", es)
	}
}

func TestBufferMarkHeldLeavesHolderOut(t *testing.T) {
	var b core.Buffer
	b.Add(lattice.NewSet("a"), "me")
	b.Add(lattice.NewSet("b", "c"), "me")
	// The neighbor at position 1 sent {a, b}: it holds the first entry,
	// and only part of the second.
	if !b.MarkHeld(lattice.NewSet("a", "b"), 1) {
		t.Fatal("MarkHeld marked nothing")
	}
	g := b.Group(1, all, nil).(*lattice.Set)
	if g.Contains("a") || !g.Contains("b") || !g.Contains("c") {
		t.Errorf("group for the holder = %v, want {b,c}", g)
	}
	if g := b.Group(0, all, nil); g.Elements() != 3 {
		t.Errorf("group for another neighbor = %v, want all three", g)
	}
	if g := b.GroupAll(); g.Elements() != 3 {
		t.Errorf("GroupAll = %v, want all three", g)
	}
	// A negative position marks nothing, and one marked already is not
	// marked again.
	if b.MarkHeld(lattice.NewSet("a", "b", "c"), -1) || b.MarkHeld(lattice.NewSet("a"), 1) {
		t.Error("MarkHeld reported a mark it did not make")
	}
	if es := b.Entries(); es[0].Held.Len() != 1 || !es[0].Held.Has(1) || es[1].Held.Len() != 0 {
		t.Errorf("entries held by %d and %d neighbors, want the first by position 1 alone", es[0].Held.Len(), es[1].Held.Len())
	}
}

// TestBufferMarkHeldAllocatesNothing: a delivery marks the entries its
// δ-group covers in place, one subset check each.
func TestBufferMarkHeldAllocatesNothing(t *testing.T) {
	var b core.Buffer
	b.Add(lattice.NewSet("a"), "me")
	b.Add(lattice.NewSet("b", "c"), "n0")
	d := lattice.NewSet("a", "b", "c", "d")
	i := 0
	if n := testing.AllocsPerRun(63, func() { b.MarkHeld(d, i); i++ }); n != 0 {
		t.Errorf("MarkHeld allocates %.1f times a call", n)
	}
	for _, e := range b.Entries() {
		if e.Held.Len() != 64 {
			t.Errorf("entry %v held by %d positions, want all 64 of the word", e.Delta, e.Held.Len())
		}
	}
}

// sent ends a step that also ends every hold, as the plain delta engine's
// second tick after an entry's arrival does: every neighbor the step did
// not defer an entry for holds it now, the deferrals end, and the entries
// every neighbor owed them holds leave.
func sent(b *core.Buffer, neighbors []string) {
	entries := b.Entries()
	for k := range entries {
		e := &entries[k]
		for i := range neighbors {
			if i >= 64 || e.Defer&(1<<i) == 0 {
				e.Held.Add(i)
			}
		}
		e.Defer = 0
	}
	b.Drop(len(neighbors), bp(neighbors))
}

// step runs one synchronization step over b as the plain delta engine
// does, with BP: each neighbor's group, then sent. It returns the group
// each neighbor was sent, by name.
func step(b *core.Buffer, neighbors []string) map[string]lattice.State {
	groups := map[string]lattice.State{}
	for i, j := range neighbors {
		if d := b.Group(i, bp(neighbors), nil); d != nil {
			groups[j] = d
		}
	}
	sent(b, neighbors)
	return groups
}

// only reports whether sent holds one group, {elem}, for to.
func only(sent map[string]lattice.State, to, elem string) bool {
	g, ok := sent[to].(*lattice.Set)
	return len(sent) == 1 && ok && g.Elements() == 1 && g.Contains(elem)
}

// TestBufferDeferredNeighborWaitsOneStep: an entry from n0 whose forward
// to n1 is deferred goes to n2 on the first step and to n1 on the second,
// then leaves; one deferred for no neighbor leaves after the first.
func TestBufferDeferredNeighborWaitsOneStep(t *testing.T) {
	neighbors := []string{"n0", "n1", "n2"}
	var b core.Buffer
	b.Push(core.Entry{Delta: lattice.NewSet("a"), Origin: "n0", Defer: 1 << 1})
	b.Add(lattice.NewSet("b"), "n0")
	if sent := step(&b, neighbors); len(sent) != 2 || sent["n1"].Elements() != 1 || sent["n2"].Elements() != 2 {
		t.Fatalf("first step sent %v, want b to n1 and a, b to n2", sent)
	}
	if b.Len() != 1 {
		t.Fatalf("%d entries left after the first step, want the deferred one", b.Len())
	}
	if sent := step(&b, neighbors); !only(sent, "n1", "a") {
		t.Fatalf("second step sent %v, want a to n1 alone", sent)
	}
	if b.Len() != 0 || cap(b.Entries()) != 0 {
		t.Fatalf("%d entries (capacity %d) left after the second step", b.Len(), cap(b.Entries()))
	}
}

// TestBufferDeferredEntryDroppedOnReceipt: a deferred neighbor that sends
// the entry back between the two steps is never sent it, and the entry
// leaves the buffer; one that holds it before the first step lets it
// leave then.
func TestBufferDeferredEntryDroppedOnReceipt(t *testing.T) {
	neighbors := []string{"n0", "n1", "n2"}
	var b core.Buffer
	b.Push(core.Entry{Delta: lattice.NewSet("a"), Origin: "n0", Defer: 1 << 1})
	if sent := step(&b, neighbors); !only(sent, "n2", "a") {
		t.Fatalf("first step sent %v, want a to n2 alone", sent)
	}
	b.MarkHeld(lattice.NewSet("a", "z"), 1)
	if sent := step(&b, neighbors); len(sent) != 0 || b.Len() != 0 {
		t.Fatalf("second step sent %v and left %d entries, want nothing and none", sent, b.Len())
	}

	b.Push(core.Entry{Delta: lattice.NewSet("a"), Origin: "n0", Defer: 1 << 1})
	b.MarkHeld(lattice.NewSet("a"), 1)
	if sent := step(&b, neighbors); !only(sent, "n2", "a") || b.Len() != 0 {
		t.Fatalf("step sent %v and left %d entries, want a to n2 alone and none", sent, b.Len())
	}
}

// TestBufferEntryLeavesOnceEveryOwedNeighborHolds: an entry from n3
// deferred for n0 and n1 stays while either has not been sent it or sent
// it back: n2 is sent it on the first step, n0 sends it back, n1 is sent
// it on the second, and it leaves.
func TestBufferEntryLeavesOnceEveryOwedNeighborHolds(t *testing.T) {
	neighbors := []string{"n0", "n1", "n2", "n3"}
	var b core.Buffer
	b.Push(core.Entry{Delta: lattice.NewSet("a"), Origin: "n3", Defer: 1<<0 | 1<<1})
	if sent := step(&b, neighbors); !only(sent, "n2", "a") || b.Len() != 1 {
		t.Fatalf("first step sent %v and left %d entries, want a to n2 alone and one", sent, b.Len())
	}
	b.MarkHeld(lattice.NewSet("a"), 0)
	if b.Len() != 1 {
		t.Fatal("the entry left before n1 held it")
	}
	if sent := step(&b, neighbors); !only(sent, "n1", "a") || b.Len() != 0 {
		t.Fatalf("second step sent %v and left %d entries, want a to n1 alone and none", sent, b.Len())
	}
}

// TestBufferPositionsPastTheWordNeverDeferred: of 70 neighbors, those past
// the 64 positions Defer names are never deferred: they are sent an entry
// on its first step and hold it after, while the one it is deferred for
// gets it on the second.
func TestBufferPositionsPastTheWordNeverDeferred(t *testing.T) {
	neighbors := make([]string, 70)
	for i := range neighbors {
		neighbors[i] = fmt.Sprintf("n%02d", i)
	}
	var b core.Buffer
	b.Push(core.Entry{Delta: lattice.NewSet("a"), Origin: "n00", Defer: 1 << 5})
	first := step(&b, neighbors)
	if len(first) != 68 || first["n05"] != nil || first["n69"] == nil {
		t.Fatalf("first step sent %d neighbors, want all 68 but the origin and n05", len(first))
	}
	b.Add(lattice.NewSet("b"), "n00")
	second := step(&b, neighbors)
	if g := second["n05"]; g == nil || g.Elements() != 2 {
		t.Fatalf("second step sent n05 %v, want a and b", g)
	}
	for _, j := range neighbors[64:] {
		if g, ok := second[j].(*lattice.Set); !ok || g.Contains("a") || !g.Contains("b") {
			t.Errorf("second step sent %s %v, want b alone", j, second[j])
		}
	}
}

// TestBufferHeldPastTheWord: of 70 neighbors, the one at position 66,
// past the inline word, that sends an entry back (MarkHeld) is left out
// of that entry's group, and an entry leaves (Drop) once every position
// it is owed to holds it, on either side of the word.
func TestBufferHeldPastTheWord(t *testing.T) {
	neighbors := make([]string, 70)
	for i := range neighbors {
		neighbors[i] = fmt.Sprintf("n%02d", i)
	}
	owed := bp(neighbors)
	var b core.Buffer
	b.Add(lattice.NewSet("a"), "n00")
	b.Add(lattice.NewSet("b"), "me")
	if !b.MarkHeld(lattice.NewSet("a"), 66) {
		t.Fatal("MarkHeld marked nothing past the word")
	}
	if g, ok := b.Group(66, owed, nil).(*lattice.Set); !ok || g.Contains("a") || !g.Contains("b") {
		t.Errorf("group for position 66 = %v, want b alone", g)
	}
	if g := b.Group(65, owed, nil); g == nil || g.Elements() != 2 {
		t.Errorf("group for position 65 = %v, want a and b", g)
	}
	ab := lattice.NewSet("a", "b")
	for i := 1; i < 69; i++ {
		b.MarkHeld(ab, i)
	}
	if b.Drop(len(neighbors), owed); b.Len() != 2 {
		t.Fatalf("%d entries left while position 69 holds neither, want both", b.Len())
	}
	b.MarkHeld(ab, 69)
	if b.Drop(len(neighbors), owed); b.Len() != 1 || b.Entries()[0].Origin != "me" {
		t.Fatalf("%d entries left, want the one position 0 is owed and does not hold", b.Len())
	}
	b.MarkHeld(ab, 0)
	if b.Drop(len(neighbors), owed); b.Len() != 0 || cap(b.Entries()) != 0 {
		t.Fatalf("%d entries (capacity %d) left once every position holds them", b.Len(), cap(b.Entries()))
	}
}

// TestBufferStepAllocatesOnlyItsGroups: a step with deferred entries
// allocates the groups it sends and nothing else — no copy of the buffer,
// no per-neighbor state.
func TestBufferStepAllocatesOnlyItsGroups(t *testing.T) {
	neighbors := []string{"n0", "n1", "n2"}
	a, c := lattice.NewSet("a"), lattice.NewSet("c")
	var b core.Buffer
	fill := func() {
		b.Push(core.Entry{Delta: a, Origin: "n0", Defer: 1 << 1})
		b.Push(core.Entry{Delta: c, Origin: "n2", Defer: 1 << 0})
	}
	owed := bp(neighbors)
	pass := func() {
		for i := range neighbors {
			b.Group(i, owed, nil)
		}
		sent(&b, neighbors)
	}
	groups := testing.AllocsPerRun(100, func() {
		// What the two steps send: c to n1 and a to n2, then a to n1 and
		// c to n0.
		c.Clone()
		a.Clone()
		a.Clone()
		c.Clone()
	})
	filled := testing.AllocsPerRun(100, func() { fill(); b.Clear() })
	stepped := testing.AllocsPerRun(100, func() { fill(); pass(); pass() })
	if b.Len() != 0 {
		t.Fatalf("%d entries left after two steps", b.Len())
	}
	t.Logf("filling %.1f, two steps %.1f beyond it, their groups %.1f", filled, stepped-filled, groups)
	if stepped > filled+groups {
		t.Errorf("two steps allocate %.1f times beyond filling the buffer, their groups %.1f", stepped-filled, groups)
	}
}
