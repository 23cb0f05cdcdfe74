package crdt

import (
	"fmt"

	"crdtsync/internal/lattice"
)

// GSet is a grow-only set over string elements: the powerset lattice P(E)
// with join = union (Figure 2b of the paper).
//
// It is lattice.Set under its own name (and wire tag) plus the δ-mutator,
// and so has that type's representation: the element of a one-element
// set inside the struct, more of them ascending in an array behind it up
// to the promotion constant lattice.smallMax (its comment cites the
// benchmark it comes from), a Go map past it.
type GSet lattice.Set

func (s *GSet) set() *lattice.Set { return (*lattice.Set)(s) }

// NewGSet returns a set containing the given elements.
func NewGSet(elems ...string) *GSet { return (*GSet)(lattice.NewSet(elems...)) }

// AddDelta is the optimal δ-mutator addδ of Figure 2b: it returns {e} if e
// is not yet in the set and bottom otherwise, without mutating the receiver.
func (s *GSet) AddDelta(e string) *GSet {
	if s.Contains(e) {
		return NewGSet()
	}
	return NewGSet(e)
}

// Add applies the standard mutator in place and returns the delta.
func (s *GSet) Add(e string) *GSet {
	d := s.AddDelta(e)
	s.Merge(d)
	return d
}

// Contains reports membership of e.
func (s *GSet) Contains(e string) bool { return s.set().Contains(e) }

// Len returns the number of elements.
func (s *GSet) Len() int { return s.set().Len() }

// Values returns the elements in sorted order, as a fresh slice.
func (s *GSet) Values() []string { return s.set().Values() }

// Sorted returns the elements in ascending order without copying where
// the representation allows; see lattice.Set.Sorted for the contract.
func (s *GSet) Sorted() []string { return s.set().Sorted() }

// Join returns the union of the two sets.
func (s *GSet) Join(other lattice.State) lattice.State {
	return asGSet(s.set().Join(mustGSet("Join", s, other).set()))
}

// Merge adds all elements of other in place.
func (s *GSet) Merge(other lattice.State) { s.set().Merge(mustGSet("Merge", s, other).set()) }

// Leq reports subset inclusion.
func (s *GSet) Leq(other lattice.State) bool { return s.set().Leq(mustGSet("Leq", s, other).set()) }

// IsBottom reports whether the set is empty.
func (s *GSet) IsBottom() bool { return s.Len() == 0 }

// Bottom returns a fresh empty set.
func (s *GSet) Bottom() lattice.State { return NewGSet() }

// Irreducibles yields one singleton per element: ⇓s = {{e} | e ∈ s}.
func (s *GSet) Irreducibles(yield func(lattice.State) bool) {
	for _, e := range s.Sorted() {
		if !yield(NewGSet(e)) {
			return
		}
	}
}

// Diff implements lattice.Differ: Δ(s, b) is the set difference s ∖ b.
func (s *GSet) Diff(b lattice.State) lattice.State {
	return asGSet(s.set().Diff(mustGSet("Delta", s, b).set()))
}

// Equal reports element-wise equality.
func (s *GSet) Equal(other lattice.State) bool {
	o, ok := other.(*GSet)
	return ok && s.set().Equal(o.set())
}

// Clone returns a deep copy.
func (s *GSet) Clone() lattice.State { return asGSet(s.set().Clone()) }

// Elements returns the number of set elements (the paper's GSet metric).
func (s *GSet) Elements() int { return s.Len() }

// SizeBytes returns the sum of the element byte lengths.
func (s *GSet) SizeBytes() int { return s.set().SizeBytes() }

// String renders the set in sorted order.
func (s *GSet) String() string { return "GSet" + s.set().String() }

// asGSet renames a lattice.Set result; the two types share their layout.
func asGSet(s lattice.State) *GSet { return (*GSet)(s.(*lattice.Set)) }

func mustGSet(op string, a, b lattice.State) *GSet {
	o, ok := b.(*GSet)
	if !ok {
		panic(fmt.Sprintf("crdt: %s of mismatched types %T and %T", op, a, b))
	}
	return o
}
