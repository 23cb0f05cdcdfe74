package lattice

import (
	"maps"
	"slices"
	"strings"
)

// Set is the powerset lattice P(U) over string elements, ordered by
// inclusion with join = union. It is the lattice state of a grow-only set.
// Its irredundant join decomposition is the set of singletons
// ⇓s = {{e} | e ∈ s} (Appendix C of the paper).
//
// Representation: up to smallMax elements are held as one ascending
// []string, the first of them in the struct itself — a one-element set
// is a single 48-byte object, where a Go map costs a header plus an
// eight-slot group — and the insert that would exceed smallMax moves them
// into a map[string]struct{}, where they stay. Both forms are the same
// set: every method accepts either on either side, and the canonical
// (sorted) encoding does not depend on the form. Exactly one of small and
// big holds the elements. The zero value is an empty set.
type Set struct {
	small []string
	big   map[string]struct{}
	one   [1]string // backs small while the set has a single element
}

// NewSet returns a set containing the given elements.
func NewSet(elems ...string) *Set {
	s := new(Set)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// room returns small with capacity for n more elements. The first
// element of a set goes into the struct's own slot, so the sets the
// protocols make by the million — singleton δs, Δ results, the state of
// a key written once — are one heap object, not two.
func (s *Set) room(n int) []string {
	if s.small == nil && n == 1 {
		return s.one[:0]
	}
	return slices.Grow(s.small, n)
}

// Contains reports whether e is in the set.
func (s *Set) Contains(e string) bool {
	_, ok := s.find(e, 0)
	return ok
}

// find reports whether e is in the set. In the slice form the search
// starts at position from, and next is where the search for any larger
// element may start — the walks over two ascending operands below pass
// it along, so each lookup searches only what the last one left.
func (s *Set) find(e string, from int) (next int, ok bool) {
	if s.big != nil {
		_, ok = s.big[e]
		return 0, ok
	}
	return searchStrings(s.small, from, e)
}

// Add inserts e into the set in place. It is the standard (non-delta)
// mutator; delta mutators live in package crdt.
func (s *Set) Add(e string) { s.insert(e, 0, smallMax) }

// insert adds e, with find's from and next. limit is smallMax, a
// parameter so that the benchmark behind that constant can hold either
// form at any size.
func (s *Set) insert(e string, from, limit int) (next int) {
	if s.big != nil {
		s.big[e] = struct{}{}
		return 0
	}
	i, ok := searchStrings(s.small, from, e)
	switch {
	case ok:
	case len(s.small) < limit:
		s.small = slices.Insert(s.room(1), i, e)
	default:
		s.big = make(map[string]struct{}, 2*len(s.small))
		for _, x := range s.small {
			s.big[x] = struct{}{}
		}
		s.big[e] = struct{}{}
		s.small = nil
	}
	return i
}

// Len returns the number of elements.
func (s *Set) Len() int { return len(s.small) + len(s.big) }

// Values returns the elements in sorted order, as a fresh slice.
func (s *Set) Values() []string {
	if s.big != nil {
		return s.Sorted()
	}
	return append(make([]string, 0, len(s.small)), s.small...)
}

// Sorted returns the elements in ascending order. While the set is in
// its slice form this is the set's own storage — the caller must not
// modify it, and it is valid only until the next mutation.
func (s *Set) Sorted() []string {
	if s.big == nil {
		return s.small
	}
	out := make([]string, 0, len(s.big))
	for e := range s.big {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

// Join returns the union of the two sets.
func (s *Set) Join(other State) State {
	mustSet("Join", s, other)
	j := s.Clone()
	j.Merge(other)
	return j
}

// Merge adds all elements of other to the receiver. A δ the receiver
// already covers costs one search per element and allocates nothing; a
// singleton δ costs one search and one insert.
func (s *Set) Merge(other State) { s.merge(mustSet("Merge", s, other), smallMax) }

func (s *Set) merge(o *Set, limit int) {
	j := 0
	for _, e := range o.small {
		j = s.insert(e, j, limit)
	}
	for e := range o.big {
		s.insert(e, 0, limit)
	}
}

// Leq reports subset inclusion.
func (s *Set) Leq(other State) bool {
	o := mustSet("Leq", s, other)
	if s.Len() > o.Len() {
		return false
	}
	j, ok := 0, false
	for _, e := range s.small {
		if j, ok = o.find(e, j); !ok {
			return false
		}
	}
	for e := range s.big {
		if !o.Contains(e) {
			return false
		}
	}
	return true
}

// IsBottom reports whether the set is empty.
func (s *Set) IsBottom() bool { return s.Len() == 0 }

// Bottom returns a fresh empty set.
func (s *Set) Bottom() State { return new(Set) }

// Irreducibles yields one singleton set per element.
func (s *Set) Irreducibles(yield func(State) bool) {
	for _, e := range s.small {
		if !yield(NewSet(e)) {
			return
		}
	}
	for e := range s.big {
		if !yield(NewSet(e)) {
			return
		}
	}
}

// Diff implements Differ: Δ(s, b) is the set difference s ∖ b.
func (s *Set) Diff(b State) State {
	o := mustSet("Delta", s, b)
	d := new(Set)
	j, ok := 0, false
	for _, e := range s.small {
		if j, ok = o.find(e, j); !ok {
			d.small = append(d.room(1), e) // ascending, and no longer than s
		}
	}
	for e := range s.big {
		if !o.Contains(e) {
			d.Add(e)
		}
	}
	return d
}

// Equal reports whether both sets hold exactly the same elements.
func (s *Set) Equal(other State) bool {
	o, ok := other.(*Set)
	if !ok || s.Len() != o.Len() {
		return false
	}
	if s.big == nil && o.big == nil {
		return slices.Equal(s.small, o.small)
	}
	return s.Leq(o)
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() State {
	if s.big != nil {
		return &Set{big: maps.Clone(s.big)}
	}
	c := new(Set)
	if n := len(s.small); n > 0 {
		c.small = append(c.room(n), s.small...)
	}
	return c
}

// Elements returns the number of set elements (the paper's GSet metric).
func (s *Set) Elements() int { return s.Len() }

// SizeBytes returns the sum of the element byte lengths.
func (s *Set) SizeBytes() int {
	n := 0
	for _, e := range s.small {
		n += len(e)
	}
	for e := range s.big {
		n += len(e)
	}
	return n
}

// String renders the set in sorted order.
func (s *Set) String() string {
	return "{" + strings.Join(s.Sorted(), ",") + "}"
}

func mustSet(op string, a State, b State) *Set {
	o, ok := b.(*Set)
	if !ok {
		panic(mismatch(op, a, b))
	}
	return o
}
