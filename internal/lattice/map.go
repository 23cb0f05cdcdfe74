package lattice

import (
	"slices"
	"strings"
)

// Map is the finite-function lattice U ↪ A from string keys to a value
// lattice A, ordered pointwise with join computed key-wise. Absent keys are
// implicitly bottom, and the invariant "no stored value is bottom" is
// maintained by every operation, so two equal maps are structurally equal.
//
// Its irredundant join decomposition follows Appendix C of the paper:
// ⇓f = {{k ↦ v} | k ∈ dom(f) ∧ v ∈ ⇓f(k)}.
//
// Representation: as for Set, up to smallMax entries are one slice of
// (key, value) pairs ascending by key, the first of them in the struct
// itself — a one-field map is a single 64-byte object plus its value —
// and the insert that would exceed smallMax moves them into a
// map[string]State for good. Exactly one of small and big holds the
// entries; no method cares which form its argument is in. The zero value
// is an empty map.
type Map struct {
	small []MapEntry
	big   map[string]State
	one   [1]MapEntry // backs small while the map has a single entry
}

// MapEntry is one k ↦ v pair of a Map.
type MapEntry struct {
	Key string
	Val State
}

// NewMap returns an empty map lattice.
func NewMap() *Map { return new(Map) }

// room returns small with capacity for n more entries, the first entry
// of a map going into the struct's own slot; see Set.room.
func (m *Map) room(n int) []MapEntry {
	if m.small == nil && n == 1 {
		return m.one[:0]
	}
	s := slices.Grow(m.small, n)
	// Storage that has moved off the struct's slot must not leave a
	// reference to the first value behind in it. (While small still is
	// that slot it is empty here: its capacity is one.)
	m.one[0] = MapEntry{}
	return s
}

// NewMapEntry returns a map holding the single entry {k ↦ v}; a bottom v
// yields the empty map.
func NewMapEntry(k string, v State) *Map {
	m := NewMap()
	m.Set(k, v)
	return m
}

// search returns the position of k in the slice form, or where it would
// be inserted, and whether it is present, looking at small[from:] only.
func (m *Map) search(k string, from int) (int, bool) {
	s := m.small
	lo, hi := from, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].Key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo].Key == k
}

// Get returns the value stored at k, or nil if k is absent (bottom).
func (m *Map) Get(k string) State {
	_, v := m.find(k, 0)
	return v
}

// find returns the value stored at k, nil if absent. In the slice form
// the search starts at position from, and next is where the search for
// any larger key may start; see Set.find.
func (m *Map) find(k string, from int) (next int, v State) {
	if m.big != nil {
		return 0, m.big[k]
	}
	i, ok := m.search(k, from)
	if ok {
		v = m.small[i].Val
	}
	return i, v
}

// Set stores v at key k in place, dropping the entry when v is bottom.
// The value is stored as given (not cloned); callers retaining v must
// clone it themselves.
func (m *Map) Set(k string, v State) {
	if v == nil || v.IsBottom() {
		if m.big != nil {
			delete(m.big, k)
		} else if i, ok := m.search(k, 0); ok {
			m.small = slices.Delete(m.small, i, i+1)
		}
		return
	}
	m.put(k, v, 0)
}

// put stores the non-bottom v at k, with find's from and next.
func (m *Map) put(k string, v State, from int) (next int) {
	if m.big != nil {
		m.big[k] = v
		return 0
	}
	i, ok := m.search(k, from)
	switch {
	case ok:
		m.small[i].Val = v
	case len(m.small) < smallMax:
		m.small = slices.Insert(m.room(1), i, MapEntry{k, v})
	default:
		m.big = make(map[string]State, 2*len(m.small))
		for _, e := range m.small {
			m.big[e.Key] = e.Val
		}
		m.big[k] = v
		m.small = nil
	}
	return i
}

// Len returns the number of present (non-bottom) keys.
func (m *Map) Len() int { return len(m.small) + len(m.big) }

// Sorted returns the entries ascending by key. While the map is in its
// slice form this is the map's own storage — the caller must not modify
// it, and it is valid only until the next mutation.
func (m *Map) Sorted() []MapEntry {
	if m.big == nil {
		return m.small
	}
	out := make([]MapEntry, 0, len(m.big))
	for k, v := range m.big {
		out = append(out, MapEntry{k, v})
	}
	slices.SortFunc(out, func(a, b MapEntry) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// Range calls fn for every entry until fn returns false. Iteration order is
// unspecified.
func (m *Map) Range(fn func(k string, v State) bool) {
	for _, e := range m.small {
		if !fn(e.Key, e.Val) {
			return
		}
	}
	for k, v := range m.big {
		if !fn(k, v) {
			return
		}
	}
}

// Join returns the key-wise join of the two maps.
func (m *Map) Join(other State) State {
	mustMap("Join", m, other)
	j := m.Clone()
	j.Merge(other)
	return j
}

// Merge joins every entry of other into the receiver in place: values
// of keys the receiver has are joined where they are, the others are
// inserted as clones. A δ on existing keys allocates only what the
// values' own Merge does.
func (m *Map) Merge(other State) {
	o := mustMap("Merge", m, other)
	j := 0
	for _, e := range o.small {
		j = m.mergeEntry(e.Key, e.Val, j)
	}
	for k, v := range o.big {
		m.mergeEntry(k, v, 0)
	}
}

func (m *Map) mergeEntry(k string, v State, from int) (next int) {
	next, cur := m.find(k, from)
	if cur != nil {
		cur.Merge(v)
		return next
	}
	return m.put(k, v.Clone(), next)
}

// Leq reports the pointwise order: every entry of m must be ⊑ the
// corresponding entry of other.
func (m *Map) Leq(other State) bool {
	o := mustMap("Leq", m, other)
	if m.Len() > o.Len() {
		return false
	}
	j := 0
	for _, e := range m.small {
		var ov State
		if j, ov = o.find(e.Key, j); ov == nil || !e.Val.Leq(ov) {
			return false
		}
	}
	for k, v := range m.big {
		if ov := o.Get(k); ov == nil || !v.Leq(ov) {
			return false
		}
	}
	return true
}

// IsBottom reports whether the map has no entries.
func (m *Map) IsBottom() bool { return m.Len() == 0 }

// Bottom returns a fresh empty map.
func (m *Map) Bottom() State { return NewMap() }

// Irreducibles yields singleton maps {k ↦ v} for every key k and every
// irreducible v of the stored value.
func (m *Map) Irreducibles(yield func(State) bool) {
	m.Range(func(k string, v State) bool {
		more := true
		v.Irreducibles(func(iv State) bool {
			more = yield(NewMapEntry(k, iv))
			return more
		})
		return more
	})
}

// Diff implements Differ: Δ(m, b) keeps, per key, Δ(m(k), b(k)) — the
// whole value (cloned) where b lacks the key, nothing where b's value
// covers it.
func (m *Map) Diff(b State) State {
	o := mustMap("Delta", m, b)
	d := NewMap()
	j := 0
	for _, e := range m.small {
		var ov State
		j, ov = o.find(e.Key, j)
		if dv := diffValue(e.Val, ov); dv != nil {
			d.small = append(d.room(1), MapEntry{e.Key, dv}) // ascending, and no longer than m
		}
	}
	for k, v := range m.big {
		if dv := diffValue(v, o.Get(k)); dv != nil {
			d.Set(k, dv)
		}
	}
	return d
}

// diffValue returns Δ(v, bv) for one map value, nil when it is bottom;
// bv is nil where the other map has no such key.
func diffValue(v, bv State) State {
	switch {
	case bv == nil:
		return v.Clone()
	case v.Leq(bv):
		return nil
	default:
		return Delta(v, bv)
	}
}

// Equal reports key-wise structural equality.
func (m *Map) Equal(other State) bool {
	o, ok := other.(*Map)
	if !ok || m.Len() != o.Len() {
		return false
	}
	j := 0
	for _, e := range m.small {
		var ov State
		if j, ov = o.find(e.Key, j); ov == nil || !e.Val.Equal(ov) {
			return false
		}
	}
	for k, v := range m.big {
		if ov := o.Get(k); ov == nil || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the map.
func (m *Map) Clone() State {
	if m.big != nil {
		c := &Map{big: make(map[string]State, len(m.big))}
		for k, v := range m.big {
			c.big[k] = v.Clone()
		}
		return c
	}
	c := NewMap()
	if n := len(m.small); n > 0 {
		c.small = c.room(n)
	}
	for _, e := range m.small {
		c.small = append(c.small, MapEntry{e.Key, e.Val.Clone()})
	}
	return c
}

// Elements returns the total number of leaf entries: the sum of Elements()
// over all stored values. For maps of chains this is the number of map
// entries, matching the paper's GCounter/GMap metric.
func (m *Map) Elements() int {
	n := 0
	m.Range(func(_ string, v State) bool {
		n += v.Elements()
		return true
	})
	return n
}

// SizeBytes returns the sum of key lengths plus stored value sizes.
func (m *Map) SizeBytes() int {
	n := 0
	m.Range(func(k string, v State) bool {
		n += len(k) + v.SizeBytes()
		return true
	})
	return n
}

// String renders the map in sorted key order.
func (m *Map) String() string {
	parts := make([]string, 0, m.Len())
	for _, e := range m.Sorted() {
		parts = append(parts, e.Key+"→"+e.Val.String())
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func mustMap(op string, a State, b State) *Map {
	o, ok := b.(*Map)
	if !ok {
		panic(mismatch(op, a, b))
	}
	return o
}
