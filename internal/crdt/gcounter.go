// Package crdt implements the catalog of state-based CRDTs used in the
// paper's evaluation (GCounter, GSet, GMap) together with the further data
// types its appendices cover (PNCounter, 2P-Set, LWW register) and an
// add-wins set extension built on dot stores.
//
// Every data type exposes the paper's split between mutators and
// δ-mutators: methods suffixed Delta are pure δ-mutators mδ that read the
// current state and return only the (optimal) delta; the caller joins the
// delta into the local state, exactly as Algorithm 1's store() does.
package crdt

import (
	"fmt"
	"slices"
	"strings"

	"crdtsync/internal/lattice"
)

// GCounter is a grow-only counter: the finite-function lattice I ↪ ℕ from
// replica identifiers to per-replica increment counts, joined entry-wise
// with max (Figure 2a of the paper).
//
// Representation: one slice of (replica, count) entries ascending by
// replica id, the first of them in the struct itself, so a counter one
// replica has written is a single 48-byte object. A counter has at most
// one entry per replica, so unlike the sets and maps it never needs a
// hashed form: lookups are binary searches, and Merge, Leq and Diff walk
// both counters in ascending order, each lookup searching only past the
// previous one. No stored count is zero. The zero value is an empty
// counter.
type GCounter struct {
	entries []gcEntry
	one     [1]gcEntry // backs entries while the counter has a single entry
}

type gcEntry struct {
	id string
	n  uint64
}

// NewGCounter returns an empty (bottom) grow-only counter.
func NewGCounter() *GCounter { return new(GCounter) }

// room returns entries with capacity for n more, the first entry of a
// counter going into the struct's own slot.
func (c *GCounter) room(n int) []gcEntry {
	if c.entries == nil && n == 1 {
		return c.one[:0]
	}
	return slices.Grow(c.entries, n)
}

// search returns the position of replica among entries[from:], or where
// it would be inserted, and whether it is present. Walks over two
// counters pass the last position along, so each search covers only what
// the previous one left.
func (c *GCounter) search(replica string, from int) (int, bool) {
	s := c.entries
	lo, hi := from, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].id < replica {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo].id == replica
}

// IncDelta is the optimal δ-mutator incδᵢ: it returns the single updated
// entry {i ↦ p(i) + n} without mutating the receiver. n must be ≥ 1.
func (c *GCounter) IncDelta(replica string, n uint64) *GCounter {
	if n == 0 {
		panic("crdt: GCounter.IncDelta with n == 0 is not an inflation")
	}
	return singleEntry(replica, c.Entry(replica)+n)
}

// singleEntry returns the join-irreducible counter {replica ↦ n}.
func singleEntry(replica string, n uint64) *GCounter {
	d := new(GCounter)
	d.one[0] = gcEntry{replica, n}
	d.entries = d.one[:]
	return d
}

// Inc applies the standard mutator incᵢ in place and returns the delta that
// a δ-mutator would have produced, for convenience.
func (c *GCounter) Inc(replica string, n uint64) *GCounter {
	d := c.IncDelta(replica, n)
	c.Merge(d)
	return d
}

// Value returns the counter value: the sum of all per-replica entries.
func (c *GCounter) Value() uint64 {
	var sum uint64
	for _, e := range c.entries {
		sum += e.n
	}
	return sum
}

// Entry returns the count recorded for the given replica.
func (c *GCounter) Entry(replica string) uint64 {
	if i, ok := c.search(replica, 0); ok {
		return c.entries[i].n
	}
	return 0
}

// Range calls fn for every (replica, count) entry, ascending by replica,
// until fn returns false.
func (c *GCounter) Range(fn func(replica string, count uint64) bool) {
	for _, e := range c.entries {
		if !fn(e.id, e.n) {
			return
		}
	}
}

// Join returns the entry-wise max of the two counters.
func (c *GCounter) Join(other lattice.State) lattice.State {
	mustGCounter("Join", c, other)
	j := c.Clone()
	j.Merge(other)
	return j
}

// Merge joins other into the receiver in place: entries the receiver has
// are raised where they are, the others inserted. A δ the receiver
// already covers, or one that only raises existing entries, allocates
// nothing.
func (c *GCounter) Merge(other lattice.State) {
	o := mustGCounter("Merge", c, other)
	j := 0
	for _, e := range o.entries {
		var ok bool
		if j, ok = c.search(e.id, j); ok {
			c.entries[j].n = max(c.entries[j].n, e.n)
		} else {
			c.entries = slices.Insert(c.room(1), j, e)
		}
	}
}

// Leq reports entry-wise ≤.
func (c *GCounter) Leq(other lattice.State) bool {
	o := mustGCounter("Leq", c, other)
	if len(c.entries) > len(o.entries) {
		return false
	}
	j := 0
	for _, e := range c.entries {
		var ok bool
		if j, ok = o.search(e.id, j); !ok || e.n > o.entries[j].n {
			return false
		}
	}
	return true
}

// IsBottom reports whether no replica has recorded increments.
func (c *GCounter) IsBottom() bool { return len(c.entries) == 0 }

// Bottom returns a fresh empty counter.
func (c *GCounter) Bottom() lattice.State { return NewGCounter() }

// Irreducibles yields one single-entry counter per map entry:
// ⇓p = {{k ↦ v} | k ↦ v ∈ p} (§III-A of the paper).
func (c *GCounter) Irreducibles(yield func(lattice.State) bool) {
	for _, e := range c.entries {
		if !yield(singleEntry(e.id, e.n)) {
			return
		}
	}
}

// Diff implements lattice.Differ: Δ(c, b) keeps the entries of c that
// exceed b's.
func (c *GCounter) Diff(b lattice.State) lattice.State {
	o := mustGCounter("Delta", c, b)
	d := new(GCounter)
	j := 0
	for _, e := range c.entries {
		var ok bool
		if j, ok = o.search(e.id, j); !ok || e.n > o.entries[j].n {
			d.entries = append(d.room(1), e)
		}
	}
	return d
}

// Equal reports entry-wise equality.
func (c *GCounter) Equal(other lattice.State) bool {
	o, ok := other.(*GCounter)
	return ok && slices.Equal(c.entries, o.entries)
}

// Clone returns a deep copy.
func (c *GCounter) Clone() lattice.State {
	cp := new(GCounter)
	if n := len(c.entries); n > 0 {
		cp.entries = append(cp.room(n), c.entries...)
	}
	return cp
}

// Elements returns the number of entries in the map (the paper's GCounter
// transmission/memory metric, Table I).
func (c *GCounter) Elements() int { return len(c.entries) }

// SizeBytes returns the wire size: per entry, the replica id plus 8 bytes.
func (c *GCounter) SizeBytes() int {
	n := 0
	for _, e := range c.entries {
		n += len(e.id) + 8
	}
	return n
}

// String renders the counter in sorted replica order.
func (c *GCounter) String() string {
	parts := make([]string, 0, len(c.entries))
	for _, e := range c.entries {
		parts = append(parts, fmt.Sprintf("%s:%d", e.id, e.n))
	}
	return "GCounter{" + strings.Join(parts, ",") + "}"
}

func mustGCounter(op string, a, b lattice.State) *GCounter {
	o, ok := b.(*GCounter)
	if !ok {
		panic(fmt.Sprintf("crdt: %s of mismatched types %T and %T", op, a, b))
	}
	return o
}
