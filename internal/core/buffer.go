package core

import (
	"math/bits"

	"crdtsync/internal/lattice"
)

// Positions is a set of positions among a node's neighbors: one inline
// word for the positions below 64 (every deployment here), an overflow
// for the rest. The zero value is the empty set. A copy shares its
// overflow with the original, so only one of the two may grow past the
// word.
type Positions struct {
	lo uint64
	hi *[]uint64
}

// Add puts position i, which must not be negative, in the set.
func (p *Positions) Add(i int) {
	if i < 64 {
		p.lo |= 1 << i
		return
	}
	if p.hi == nil {
		p.hi = new([]uint64)
	}
	w := i/64 - 1
	if w >= len(*p.hi) {
		*p.hi = append(*p.hi, make([]uint64, w+1-len(*p.hi))...)
	}
	(*p.hi)[w] |= 1 << (i % 64)
}

// Has reports whether position i, which must not be negative, is in the
// set.
func (p Positions) Has(i int) bool {
	if i < 64 {
		return p.lo&(1<<i) != 0
	}
	w := i/64 - 1
	return p.hi != nil && w < len(*p.hi) && (*p.hi)[w]&(1<<(i%64)) != 0
}

// Len returns the number of positions in the set.
func (p Positions) Len() int {
	n := bits.OnesCount64(p.lo)
	if p.hi != nil {
		for _, w := range *p.hi {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// Entry is one δ-group in a δ-buffer, tagged with the identifier of the
// replica it was received from ("" origin means a local mutation at a
// replica that does not track origins). Origin tags implement the BP
// optimization: at each synchronization step with neighbor j, entries whose
// Origin equals j are filtered out (Algorithm 1, lines 5, 11, 20).
//
// Held extends BP from the neighbor an entry came from to every neighbor
// known to hold it, by position among the neighbors: a neighbor that has
// sent a δ-group covering the entry (MarkHeld), one a lossless step has
// sent it to, one that has acknowledged it. Defer has bit i set while a
// forward of the entry to the neighbor at position i is held, for that
// neighbor's own copy to arrive first; positions past the word are never
// deferred. Ticks counts the ticks the entry has been held through, and
// ends the hold at the second. Algorithm 1 defers and marks nothing but
// what it sends; only an engine that prunes by receipt does.
//
// Seq, Wait and Gap are the acknowledging engine's: the number a receiver
// acknowledges the entry by (0 under an engine that numbers nothing), and
// its resend schedule: the ticks since its last send, and how often it has
// been sent again. Due is set while the next send pass ships the
// entry: from the time it is buffered, for the length of a pass that
// sends it again, and from the end of a hold to the pass after.
type Entry struct {
	Delta     lattice.State
	Origin    string
	Seq       uint64
	Held      Positions
	Defer     uint64
	Wait, Gap uint8
	Ticks     uint8
	Due       bool
}

// Pending reports whether one of the first n neighbor positions that owed
// says must receive the entry does not hold it yet.
func (e *Entry) Pending(n int, owed func(origin string, i int) bool) bool {
	for i := 0; i < n; i++ {
		if !e.Held.Has(i) && owed(e.Origin, i) {
			return true
		}
	}
	return false
}

// Buffer is the outbound δ-buffer Bᵢ of Algorithm 1: an ordered collection
// of origin-tagged δ-groups accumulated between synchronization steps,
// each with the neighbors known to hold it. The zero value is an empty
// buffer ready for use.
type Buffer struct {
	entries []Entry
}

// Add appends a δ-group with the given origin. Bottom deltas are ignored:
// they carry no information.
func (b *Buffer) Add(delta lattice.State, origin string) { b.Push(Entry{Delta: delta, Origin: origin}) }

// Push appends e, due at the next send pass. An entry with a bottom delta
// is ignored.
func (b *Buffer) Push(e Entry) {
	if e.Delta == nil || e.Delta.IsBottom() {
		return
	}
	e.Due = true
	b.entries = append(b.entries, e)
}

// Len returns the number of buffered δ-groups.
func (b *Buffer) Len() int { return len(b.entries) }

// Unsent reports whether the next send pass has an entry to ship. An
// engine keeps its due entries at the end of the buffer, where Push puts
// a new one, so the last entry tells — but for a hold ended toward one
// neighbor, which can leave a due entry before one still held: the owner
// of a buffer whose holds it ends queues it for the next pass itself.
func (b *Buffer) Unsent() bool {
	n := len(b.entries)
	return n > 0 && b.entries[n-1].Due
}

// Deferred reports whether a buffered entry's forward is held for some
// neighbor (Entry.Defer).
func (b *Buffer) Deferred() bool {
	for k := range b.entries {
		if b.entries[k].Defer != 0 {
			return true
		}
	}
	return false
}

// Clear empties the buffer.
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
	var acc lattice.State
	for _, e := range b.entries {
		acc = join(acc, e.Delta)
	}
	return acc
}

// Group returns the join of the entries the next send pass owes the
// neighbor at position i — those due, that owed says it must receive,
// that it is not marked as holding and whose forward to it is not
// deferred — or nil if there is none. The Seq of each is appended to
// *seqs unless seqs is nil. With owed leaving out the entries whose origin
// is the neighbor this implements the BP optimization,
// d = ⊔{s | ⟨s, o⟩ ∈ Bᵢ ∧ o ≠ j}.
func (b *Buffer) Group(i int, owed func(origin string, i int) bool, seqs *[]uint64) lattice.State {
	var acc lattice.State
	for k := range b.entries {
		e := &b.entries[k]
		if !e.Due || i < 64 && e.Defer&(1<<i) != 0 || e.Held.Has(i) || !owed(e.Origin, i) {
			continue
		}
		acc = join(acc, e.Delta)
		if seqs != nil {
			*seqs = append(*seqs, e.Seq)
		}
	}
	return acc
}

// join merges d into acc, or returns a copy of d for a nil acc.
func join(acc, d lattice.State) lattice.State {
	if acc == nil {
		return d.Clone()
	}
	acc.Merge(d)
	return acc
}

// MarkHeld marks every buffered entry that d covers as held by the
// neighbor at position i, which has just sent d: a replica holds every
// δ-group it sends. It reports whether it marked any. A negative position
// marks nothing, and so does a d that covers only part of an entry.
func (b *Buffer) MarkHeld(d lattice.State, i int) bool {
	if i < 0 {
		return false
	}
	marked := false
	for k := range b.entries {
		if e := &b.entries[k]; !e.Held.Has(i) && e.Delta.Leq(d) {
			e.Held.Add(i)
			marked = true
		}
	}
	return marked
}

// Drop removes the entries that every one of the first n neighbor
// positions owed says must receive them holds (Pending), and releases the
// buffer's array with the last of them (Clear).
func (b *Buffer) Drop(n int, owed func(origin string, i int) bool) {
	kept := 0
	for k := range b.entries {
		if b.entries[k].Pending(n, owed) {
			b.entries[kept] = b.entries[k]
			kept++
		}
	}
	if kept == 0 {
		b.Clear()
		return
	}
	clear(b.entries[kept:]) // the δ-groups that left
	b.entries = b.entries[:kept]
}

// Entries returns the buffered entries. The caller may update an entry's
// Held, Defer and resend schedule in place, and nothing else.
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
