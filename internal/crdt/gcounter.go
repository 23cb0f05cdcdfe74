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
// Representation: the entries ascending by replica id, the first of them
// in the struct itself and the rest in a slice behind one pointer, so a
// counter one replica has written is a single 32-byte object. A counter
// has at most one entry per replica, so unlike the sets and maps it never
// needs a hashed form: lookups are binary searches, and Merge, Leq and
// Diff walk both counters in ascending order, each lookup searching only
// past the previous one. No stored count is zero, and first.n is zero
// exactly when the counter is empty. Encoding walks Range, so the entries
// need not be one slice. The zero value is an empty counter.
type GCounter struct {
	first gcEntry    // the entry with the least replica id
	rest  *[]gcEntry // the entries after it; nil until there are any
}

type gcEntry struct {
	id string
	n  uint64
}

// NewGCounter returns an empty (bottom) grow-only counter.
func NewGCounter() *GCounter { return new(GCounter) }

// tail returns the entries after the first.
func (c *GCounter) tail() []gcEntry {
	if c.rest == nil {
		return nil
	}
	return *c.rest
}

// len returns the number of entries.
func (c *GCounter) len() int {
	if c.first.n == 0 {
		return 0
	}
	return 1 + len(c.tail())
}

// at returns entry i, in ascending order of replica id.
func (c *GCounter) at(i int) *gcEntry {
	if i == 0 {
		return &c.first
	}
	return &(*c.rest)[i-1]
}

// search returns the position of replica among the entries from position
// from on, or where it would be inserted, and whether it is present.
// Walks over two counters pass the last position along, so each search
// covers only what the previous one left.
func (c *GCounter) search(replica string, from int) (int, bool) {
	n := c.len()
	lo, hi := from, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.at(mid).id < replica {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < n && c.at(lo).id == replica
}

// insert puts e, whose replica the counter lacks, at position i.
func (c *GCounter) insert(i int, e gcEntry) {
	switch {
	case c.first.n == 0:
		c.first = e
		return
	case i == 0:
		c.first, e = e, c.first // the old first leads the rest
	default:
		i--
	}
	if c.rest == nil {
		c.rest = new([]gcEntry)
	}
	*c.rest = slices.Insert(*c.rest, i, e)
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
	return &GCounter{first: gcEntry{replica, n}}
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
	sum := c.first.n
	for _, e := range c.tail() {
		sum += e.n
	}
	return sum
}

// Entry returns the count recorded for the given replica.
func (c *GCounter) Entry(replica string) uint64 {
	if i, ok := c.search(replica, 0); ok {
		return c.at(i).n
	}
	return 0
}

// Range calls fn for every (replica, count) entry, ascending by replica,
// until fn returns false.
func (c *GCounter) Range(fn func(replica string, count uint64) bool) {
	if c.first.n == 0 || !fn(c.first.id, c.first.n) {
		return
	}
	for _, e := range c.tail() {
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
	for i, n := 0, o.len(); i < n; i++ {
		e := *o.at(i)
		var ok bool
		if j, ok = c.search(e.id, j); ok {
			p := c.at(j)
			p.n = max(p.n, e.n)
		} else {
			c.insert(j, e)
		}
	}
}

// Leq reports entry-wise ≤.
func (c *GCounter) Leq(other lattice.State) bool {
	o := mustGCounter("Leq", c, other)
	n := c.len()
	if n > o.len() {
		return false
	}
	j := 0
	for i := 0; i < n; i++ {
		e := c.at(i)
		var ok bool
		if j, ok = o.search(e.id, j); !ok || e.n > o.at(j).n {
			return false
		}
	}
	return true
}

// IsBottom reports whether no replica has recorded increments.
func (c *GCounter) IsBottom() bool { return c.first.n == 0 }

// Bottom returns a fresh empty counter.
func (c *GCounter) Bottom() lattice.State { return NewGCounter() }

// Irreducibles yields one single-entry counter per map entry:
// ⇓p = {{k ↦ v} | k ↦ v ∈ p} (§III-A of the paper).
func (c *GCounter) Irreducibles(yield func(lattice.State) bool) {
	c.Range(func(id string, n uint64) bool { return yield(singleEntry(id, n)) })
}

// Diff implements lattice.Differ: Δ(c, b) keeps the entries of c that
// exceed b's.
func (c *GCounter) Diff(b lattice.State) lattice.State {
	o := mustGCounter("Delta", c, b)
	d := new(GCounter)
	j := 0
	for i, n := 0, c.len(); i < n; i++ {
		e := c.at(i)
		var ok bool
		if j, ok = o.search(e.id, j); !ok || e.n > o.at(j).n {
			d.insert(d.len(), *e) // ascending: each goes last
		}
	}
	return d
}

// Equal reports entry-wise equality.
func (c *GCounter) Equal(other lattice.State) bool {
	o, ok := other.(*GCounter)
	return ok && c.first == o.first && slices.Equal(c.tail(), o.tail())
}

// Clone returns a deep copy.
func (c *GCounter) Clone() lattice.State {
	cp := &GCounter{first: c.first}
	if t := c.tail(); len(t) > 0 {
		rest := slices.Clone(t)
		cp.rest = &rest
	}
	return cp
}

// Elements returns the number of entries in the map (the paper's GCounter
// transmission/memory metric, Table I).
func (c *GCounter) Elements() int { return c.len() }

// SizeBytes returns the wire size: per entry, the replica id plus 8 bytes.
func (c *GCounter) SizeBytes() int {
	n := 0
	c.Range(func(id string, _ uint64) bool {
		n += len(id) + 8
		return true
	})
	return n
}

// String renders the counter in sorted replica order.
func (c *GCounter) String() string {
	parts := make([]string, 0, c.len())
	c.Range(func(id string, n uint64) bool {
		parts = append(parts, fmt.Sprintf("%s:%d", id, n))
		return true
	})
	return "GCounter{" + strings.Join(parts, ",") + "}"
}

func mustGCounter(op string, a, b lattice.State) *GCounter {
	o, ok := b.(*GCounter)
	if !ok {
		panic(fmt.Sprintf("crdt: %s of mismatched types %T and %T", op, a, b))
	}
	return o
}
