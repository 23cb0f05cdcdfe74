package core

import "crdtsync/internal/lattice"

// Entry is one δ-group in a δ-buffer, tagged with the identifier of the
// replica it was received from ("" origin means a local mutation at a
// replica that does not track origins). Origin tags implement the BP
// optimization: at each synchronization step with neighbor j, entries whose
// Origin equals j are filtered out (Algorithm 1, lines 5, 11, 20).
type Entry struct {
	Delta  lattice.State
	Origin string
}

// Buffer is the outbound δ-buffer Bᵢ of Algorithm 1: an ordered collection
// of origin-tagged δ-groups accumulated between synchronization steps.
// The zero value is an empty buffer ready for use.
type Buffer struct {
	entries []Entry
}

// Add appends a δ-group with the given origin. Bottom deltas are ignored:
// they carry no information.
func (b *Buffer) Add(delta lattice.State, origin string) {
	if delta == nil || delta.IsBottom() {
		return
	}
	b.entries = append(b.entries, Entry{Delta: delta, Origin: origin})
}

// Len returns the number of buffered δ-groups.
func (b *Buffer) Len() int { return len(b.entries) }

// Clear empties the buffer. Algorithm 1 clears the buffer after every
// synchronization step (line 13); with lossy channels entries would instead
// be acknowledged per neighbor, which Buffer supports by rebuilding.
//
// Clear releases the entries and their backing array rather than
// truncating it: a δ-group is garbage once it has been sent, and a
// truncated array would keep the last δ-group of every object — a second
// copy of a small state — reachable for as long as the object lives. A
// per-object store has one Buffer per key, almost all of them empty.
func (b *Buffer) Clear() { b.entries = nil }

// GroupAll returns the join of every buffered δ-group, or nil if the buffer
// is empty. This is the classic δ-group d = ⊔Bᵢ (Algorithm 1, line 11).
func (b *Buffer) GroupAll() lattice.State {
	return b.GroupExcluding("")
}

// GroupExcluding returns the join of buffered δ-groups whose origin differs
// from exclude, or nil if no such entry exists. With exclude set to the
// destination neighbor this implements the BP optimization:
// d = ⊔{s | ⟨s, o⟩ ∈ Bᵢ ∧ o ≠ j}.
func (b *Buffer) GroupExcluding(exclude string) lattice.State {
	var acc lattice.State
	for _, e := range b.entries {
		if exclude != "" && e.Origin == exclude {
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
