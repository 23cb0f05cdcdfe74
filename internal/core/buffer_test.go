package core_test

import (
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

func TestBufferGroupExcludingImplementsBP(t *testing.T) {
	var b core.Buffer
	b.Add(lattice.NewSet("a"), "n1") // came from n1
	b.Add(lattice.NewSet("b"), "n2") // came from n2
	b.Add(lattice.NewSet("c"), "me") // local mutation

	// Sending to n1 must not back-propagate n1's own δ-group.
	g := b.GroupExcluding("n1", -1).(*lattice.Set)
	if g.Contains("a") {
		t.Error("BP violated: δ-group sent back to its origin")
	}
	if !g.Contains("b") || !g.Contains("c") {
		t.Errorf("BP filtered too much: %v", g)
	}

	// A neighbor that contributed everything gets nothing.
	var only core.Buffer
	only.Add(lattice.NewSet("x"), "n1")
	if g := only.GroupExcluding("n1", -1); g != nil {
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
	if got := b.ElementCount(); got != 3 {
		t.Errorf("ElementCount = %d, want 3", got)
	}
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
	b.MarkHeld(lattice.NewSet("a", "b"), 1)
	g := b.GroupExcluding("n1", 1).(*lattice.Set)
	if g.Contains("a") || !g.Contains("b") || !g.Contains("c") {
		t.Errorf("group for the holder = %v, want {b,c}", g)
	}
	if g := b.GroupExcluding("n0", 0); g.Elements() != 3 {
		t.Errorf("group for another neighbor = %v, want all three", g)
	}
	if g := b.GroupAll(); g.Elements() != 3 {
		t.Errorf("GroupAll = %v, want all three", g)
	}
	// No position outside one word is marked.
	b.MarkHeld(lattice.NewSet("a", "b", "c"), 64)
	b.MarkHeld(lattice.NewSet("a", "b", "c"), -1)
	for _, e := range b.Entries() {
		if e.Held&^(1<<1) != 0 {
			t.Errorf("entry %v marked held by %b", e.Delta, e.Held)
		}
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
		if e.Held != 1<<64-1 {
			t.Errorf("entry %v held by %b, want all 64 positions", e.Delta, e.Held)
		}
	}
}
