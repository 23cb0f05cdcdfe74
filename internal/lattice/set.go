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
// Representation (small.go): up to smallMax elements are the slice form,
// ascending — a one-element set holds its element in the struct and is a
// single 32-byte object, where a Go map costs a header plus an eight-slot
// group; two or more lie in an array behind more — and the insert that
// would exceed smallMax moves them into a map[string]struct{} behind
// more, where they stay. Both forms are the same set: every method accepts
// either on either side, and the canonical (sorted) encoding does not
// depend on the form. The struct's slot cannot tell the element "" from
// no element, so the set {""} is kept in an array. The zero value is an
// empty set.
type Set struct {
	one  [1]string // the element of a one-element set, "" otherwise
	more any       // nil, the array of the slice form, or the map form
}

// setForm is a set's elements where they lie: small, ascending, viewing
// the storage they lie in (its capacity that storage's), or big.
type setForm struct {
	small []string
	big   map[string]struct{}
}

func (s *Set) form() setForm {
	switch m := s.more.(type) {
	case nil:
		if s.one[0] == "" {
			return setForm{small: s.one[:0]}
		}
		return setForm{small: s.one[:]}
	case map[string]struct{}:
		return setForm{big: m}
	}
	a := slots[string](s.more)
	n := len(a)
	for n > 1 && a[n-1] == "" { // only the first element can be ""
		n--
	}
	return setForm{small: a[:n]}
}

func (f setForm) len() int { return len(f.small) + len(f.big) }

// find reports whether e is in the set. In the slice form the search
// starts at position from, and next is where the search for any larger
// element may start — the walks over two ascending operands below pass
// it along, so each lookup searches only what the last one left.
func (f setForm) find(e string, from int) (next int, ok bool) {
	if f.big != nil {
		_, ok = f.big[e]
		return 0, ok
	}
	return searchStrings(f.small, from, e)
}

// NewSet returns a set containing the given elements.
func NewSet(elems ...string) *Set {
	s := new(Set)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Contains reports whether e is in the set.
func (s *Set) Contains(e string) bool {
	_, ok := s.form().find(e, 0)
	return ok
}

// Add inserts e into the set in place. It is the standard (non-delta)
// mutator; delta mutators live in package crdt.
func (s *Set) Add(e string) { s.insert(e, 0) }

// insert adds e, with find's from and next. Storage that is full moves to
// the next larger array, or at smallMax elements to a map.
func (s *Set) insert(e string, from int) (next int) {
	f := s.form()
	if f.big != nil {
		f.big[e] = struct{}{}
		return 0
	}
	i, ok := searchStrings(f.small, from, e)
	switch {
	case ok:
	case len(f.small) == smallMax:
		big := make(map[string]struct{}, 2*smallMax)
		for _, x := range f.small {
			big[x] = struct{}{}
		}
		big[e] = struct{}{}
		s.one[0], s.more = "", big
	default:
		small := f.small
		if len(small) == cap(small) || e == "" && s.more == nil {
			s.more, small = newSlots(small, len(small)+1)
			s.one[0] = ""
		}
		insertAt(small, i, e)
	}
	return i
}

// Len returns the number of elements.
func (s *Set) Len() int { return s.form().len() }

// Values returns the elements in sorted order, as a fresh slice.
func (s *Set) Values() []string {
	f := s.form()
	if f.big != nil {
		return s.Sorted()
	}
	return append(make([]string, 0, len(f.small)), f.small...)
}

// Sorted returns the elements in ascending order. While the set is in
// its slice form this is the set's own storage — the caller must not
// modify it, and it is valid only until the next mutation.
func (s *Set) Sorted() []string {
	f := s.form()
	if f.big == nil {
		return f.small
	}
	out := make([]string, 0, len(f.big))
	for e := range f.big {
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
func (s *Set) Merge(other State) {
	o := mustSet("Merge", s, other).form()
	j := 0
	for _, e := range o.small {
		j = s.insert(e, j)
	}
	for e := range o.big {
		s.insert(e, 0)
	}
}

// Leq reports subset inclusion.
func (s *Set) Leq(other State) bool {
	f, o := s.form(), mustSet("Leq", s, other).form()
	if f.len() > o.len() {
		return false
	}
	j, ok := 0, false
	for _, e := range f.small {
		if j, ok = o.find(e, j); !ok {
			return false
		}
	}
	for e := range f.big {
		if _, ok = o.find(e, 0); !ok {
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
	f := s.form()
	for _, e := range f.small {
		if !yield(NewSet(e)) {
			return
		}
	}
	for e := range f.big {
		if !yield(NewSet(e)) {
			return
		}
	}
}

// Diff implements Differ: Δ(s, b) is the set difference s ∖ b.
func (s *Set) Diff(b State) State {
	f, o := s.form(), mustSet("Delta", s, b).form()
	d := new(Set)
	j, jd, ok := 0, 0, false
	for _, e := range f.small {
		if j, ok = o.find(e, j); !ok {
			jd = d.insert(e, jd) // ascending: each goes last
		}
	}
	for e := range f.big {
		if _, ok = o.find(e, 0); !ok {
			d.Add(e)
		}
	}
	return d
}

// Equal reports whether both sets hold exactly the same elements.
func (s *Set) Equal(other State) bool {
	o, ok := other.(*Set)
	if !ok {
		return false
	}
	f, g := s.form(), o.form()
	if f.len() != g.len() {
		return false
	}
	if f.big == nil && g.big == nil {
		return slices.Equal(f.small, g.small)
	}
	return s.Leq(o)
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() State {
	f := s.form()
	if f.big != nil {
		return &Set{more: maps.Clone(f.big)}
	}
	c := &Set{one: s.one}
	if s.more != nil {
		c.more, _ = newSlots(f.small, len(f.small))
	}
	return c
}

// Elements returns the number of set elements (the paper's GSet metric).
func (s *Set) Elements() int { return s.Len() }

// SizeBytes returns the sum of the element byte lengths.
func (s *Set) SizeBytes() int {
	f, n := s.form(), 0
	for _, e := range f.small {
		n += len(e)
	}
	for e := range f.big {
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
