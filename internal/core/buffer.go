package core

import "crdtsync/internal/lattice"

// Entry is one δ-group in a δ-buffer, tagged with the identifier of the
// replica it was received from ("" origin means a local mutation at a
// replica that does not track origins). Origin tags implement the BP
// optimization: at each synchronization step with neighbor j, entries whose
// Origin equals j are filtered out (Algorithm 1, lines 5, 11, 20).
//
// Held extends BP from the neighbor an entry came from to every neighbor
// known to hold it, by position among the neighbors: bit i is set once the
// neighbor at position i has sent a δ-group covering the entry (MarkHeld)
// or has been sent the entry by a synchronization step (Sent). Defer has
// bit i set while a forward of the entry to the neighbor at position i
// waits out one step, for that neighbor's own copy to arrive first.
// Algorithm 1 defers and marks nothing; only an engine that prunes by
// receipt does.
type Entry struct {
	Delta  lattice.State
	Origin string
	Held   uint64
	Defer  uint64
}

// Buffer is the outbound δ-buffer Bᵢ of Algorithm 1: an ordered collection
// of origin-tagged δ-groups accumulated between synchronization steps,
// each with the neighbors marked as already holding it and those its
// forward waits for. The zero value is an empty buffer ready for use.
type Buffer struct {
	entries []Entry
	// shipped is how many of the first entries a step has already sent to
	// every neighbor past the 64 positions Held and Defer name: only an
	// entry a step deferred outlives it (Sent), and positions past the
	// word are never deferred.
	shipped int
}

// Add appends a δ-group with the given origin. Bottom deltas are ignored:
// they carry no information.
func (b *Buffer) Add(delta lattice.State, origin string) { b.AddDeferred(delta, origin, 0) }

// AddDeferred appends a δ-group with the given origin whose forward to
// each neighbor in deferred, by position, waits out the next
// synchronization step (Sent). Bottom deltas are ignored.
func (b *Buffer) AddDeferred(delta lattice.State, origin string, deferred uint64) {
	if delta == nil || delta.IsBottom() {
		return
	}
	b.entries = append(b.entries, Entry{Delta: delta, Origin: origin, Defer: deferred})
}

// Len returns the number of buffered δ-groups.
func (b *Buffer) Len() int { return len(b.entries) }

// Clear empties the buffer.
//
// Clear releases the entries and their backing array rather than
// truncating it: a δ-group is garbage once it has been sent, and a
// truncated array would keep the last δ-group of every object — a second
// copy of a small state — reachable for as long as the object lives. A
// per-object store has one Buffer per key, almost all of them empty.
func (b *Buffer) Clear() { b.entries, b.shipped = nil, 0 }

// Sent ends a synchronization step (Algorithm 1, line 13) that has sent
// each neighbor its group (GroupExcluding): every neighbor that the step
// did not defer an entry for now holds it, and the entry leaves the
// buffer. One that a deferred neighbor has not sent back meanwhile
// (MarkHeld) stays for one more step, which owes it to that neighbor
// alone. Without deferrals the buffer is cleared after every step, as
// Algorithm 1 has it.
func (b *Buffer) Sent() {
	kept := 0
	for _, e := range b.entries {
		if late := e.Defer &^ e.Held; late != 0 {
			b.entries[kept] = Entry{Delta: e.Delta, Origin: e.Origin, Held: ^late}
			kept++
		}
	}
	if kept == 0 {
		b.Clear()
		return
	}
	clear(b.entries[kept:]) // the δ-groups that left
	b.entries, b.shipped = b.entries[:kept], kept
}

// GroupAll returns the join of every buffered δ-group, or nil if the buffer
// is empty. This is the classic δ-group d = ⊔Bᵢ (Algorithm 1, line 11).
func (b *Buffer) GroupAll() lattice.State {
	return b.GroupExcluding("", -1)
}

// GroupExcluding returns the join of the buffered δ-groups owed to the
// neighbor at position i — those whose origin differs from exclude, that
// the neighbor is not marked as holding and whose forward to it is not
// deferred — or nil if no such entry exists. With exclude set to the
// destination neighbor j this implements the BP optimization,
// d = ⊔{s | ⟨s, o⟩ ∈ Bᵢ ∧ o ≠ j}; i is j's position, or -1 to skip no
// entry for holding or deferral. A position past the 64 that Held and
// Defer name is never deferred, and is owed no entry an earlier step sent.
func (b *Buffer) GroupExcluding(exclude string, i int) lattice.State {
	var acc lattice.State
	for k, e := range b.entries {
		if exclude != "" && e.Origin == exclude || i >= 0 && i < 64 && (e.Held|e.Defer)&(1<<i) != 0 || i >= 64 && k < b.shipped {
			continue
		}
		if acc == nil {
			acc = e.Delta.Clone()
		} else {
			acc.Merge(e.Delta)
		}
	}
	return acc
}

// MarkHeld marks every buffered entry that d covers as held by the
// neighbor at position i, which has just sent d: a replica holds every
// δ-group it sends. A position outside [0, 64) marks nothing, and so
// does a d that covers only part of an entry.
func (b *Buffer) MarkHeld(d lattice.State, i int) {
	if i < 0 || i >= 64 {
		return
	}
	for k := range b.entries {
		if e := &b.entries[k]; e.Held&(1<<i) == 0 && e.Delta.Leq(d) {
			e.Held |= 1 << i
		}
	}
}

// Entries returns the buffered entries; the caller must not mutate them.
func (b *Buffer) Entries() []Entry { return b.entries }

// SizeBytes returns the memory footprint of the buffered δ-groups plus the
// origin tags, used for the paper's memory measurements (Figure 10).
func (b *Buffer) SizeBytes() int {
	n := 0
	for _, e := range b.entries {
		n += e.Delta.SizeBytes() + len(e.Origin)
	}
	return n
}

// ElementCount returns the total number of lattice elements buffered.
func (b *Buffer) ElementCount() int {
	n := 0
	for _, e := range b.entries {
		n += e.Delta.Elements()
	}
	return n
}
