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
// Representation: as for Set (small.go), up to smallMax entries are the
// slice form, ascending by key — a one-field map holds its entry in the
// struct and is a single 48-byte object plus its value; two or more lie
// in an array behind more, which keeps them when deletes leave fewer —
// and the insert that would exceed smallMax moves them into a
// map[string]State behind more, for good. No method cares which form its
// argument is in. The zero value is an empty map.
type Map struct {
	one  [1]MapEntry // the entry of a one-entry map, zero otherwise
	more any         // nil, the array of the slice form, or the map form
}

// MapEntry is one k ↦ v pair of a Map.
type MapEntry struct {
	Key string
	Val State
}

// mapForm is a map's entries where they lie: small, ascending by key,
// viewing the storage they lie in (its capacity that storage's), or big.
type mapForm struct {
	small []MapEntry
	big   map[string]State
}

func (m *Map) form() mapForm {
	switch b := m.more.(type) {
	case nil:
		if m.one[0].Val == nil {
			return mapForm{small: m.one[:0]}
		}
		return mapForm{small: m.one[:]}
	case map[string]State:
		return mapForm{big: b}
	}
	a := slots[MapEntry](m.more)
	n := len(a)
	for n > 0 && a[n-1].Val == nil {
		n--
	}
	return mapForm{small: a[:n]}
}

func (f mapForm) len() int { return len(f.small) + len(f.big) }

// search returns the position of k in the slice form, or where it would
// be inserted, and whether it is present, looking at small[from:] only.
func (f mapForm) search(k string, from int) (int, bool) {
	s := f.small
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

// find returns the value stored at k, nil if absent. In the slice form
// the search starts at position from, and next is where the search for
// any larger key may start; see setForm.find.
func (f mapForm) find(k string, from int) (next int, v State) {
	if f.big != nil {
		return 0, f.big[k]
	}
	i, ok := f.search(k, from)
	if ok {
		v = f.small[i].Val
	}
	return i, v
}

// NewMap returns an empty map lattice.
func NewMap() *Map { return new(Map) }

// NewMapEntry returns a map holding the single entry {k ↦ v}; a bottom v
// yields the empty map.
func NewMapEntry(k string, v State) *Map {
	m := NewMap()
	m.Set(k, v)
	return m
}

// Get returns the value stored at k, or nil if k is absent (bottom).
func (m *Map) Get(k string) State {
	_, v := m.form().find(k, 0)
	return v
}

// Set stores v at key k in place, dropping the entry when v is bottom.
// The value is stored as given (not cloned); callers retaining v must
// clone it themselves.
func (m *Map) Set(k string, v State) {
	if v != nil && !v.IsBottom() {
		m.put(k, v, 0)
		return
	}
	f := m.form()
	if f.big != nil {
		delete(f.big, k)
	} else if i, ok := f.search(k, 0); ok {
		n := len(f.small)
		copy(f.small[i:], f.small[i+1:])
		f.small[n-1] = MapEntry{}
	}
}

// ShareKey makes the entry at key k, if the map has one in its slice
// form, hold k itself: the string is equal, so nothing the map means
// changes, but the copy of the key the entry was made with is no longer
// kept alive by it. For an owner that keeps the key anyway — a map
// field's state is the one-entry map {object key ↦ register} — or wants
// the entry to hold a key of its own.
func (m *Map) ShareKey(k string) {
	if f := m.form(); f.big == nil {
		if i, ok := f.search(k, 0); ok {
			f.small[i].Key = k
		}
	}
}

// put stores the non-bottom v at k, with find's from and next. Storage
// that is full moves to the next larger array, or at smallMax entries to
// a map.
func (m *Map) put(k string, v State, from int) (next int) {
	f := m.form()
	if f.big != nil {
		f.big[k] = v
		return 0
	}
	i, ok := f.search(k, from)
	switch {
	case ok:
		f.small[i].Val = v
	case len(f.small) == smallMax:
		big := make(map[string]State, 2*smallMax)
		for _, e := range f.small {
			big[e.Key] = e.Val
		}
		big[k] = v
		m.one[0], m.more = MapEntry{}, big
	default:
		small := f.small
		if len(small) == cap(small) {
			m.more, small = newSlots(small, len(small)+1)
			m.one[0] = MapEntry{}
		}
		insertAt(small, i, MapEntry{k, v})
	}
	return i
}

// Len returns the number of present (non-bottom) keys.
func (m *Map) Len() int { return m.form().len() }

// Sorted returns the entries ascending by key. While the map is in its
// slice form this is the map's own storage — the caller must not modify
// it, and it is valid only until the next mutation.
func (m *Map) Sorted() []MapEntry {
	f := m.form()
	if f.big == nil {
		return f.small
	}
	out := make([]MapEntry, 0, len(f.big))
	for k, v := range f.big {
		out = append(out, MapEntry{k, v})
	}
	slices.SortFunc(out, func(a, b MapEntry) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// Range calls fn for every entry until fn returns false. Iteration order is
// unspecified.
func (m *Map) Range(fn func(k string, v State) bool) {
	f := m.form()
	for _, e := range f.small {
		if !fn(e.Key, e.Val) {
			return
		}
	}
	for k, v := range f.big {
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
	o := mustMap("Merge", m, other).form()
	j := 0
	for _, e := range o.small {
		j = m.mergeEntry(e.Key, e.Val, j)
	}
	for k, v := range o.big {
		m.mergeEntry(k, v, 0)
	}
}

func (m *Map) mergeEntry(k string, v State, from int) (next int) {
	next, cur := m.form().find(k, from)
	if cur != nil {
		cur.Merge(v)
		return next
	}
	return m.put(k, v.Clone(), next)
}

// Leq reports the pointwise order: every entry of m must be ⊑ the
// corresponding entry of other.
func (m *Map) Leq(other State) bool {
	f, o := m.form(), mustMap("Leq", m, other).form()
	if f.len() > o.len() {
		return false
	}
	j := 0
	for _, e := range f.small {
		var ov State
		if j, ov = o.find(e.Key, j); ov == nil || !e.Val.Leq(ov) {
			return false
		}
	}
	for k, v := range f.big {
		if _, ov := o.find(k, 0); ov == nil || !v.Leq(ov) {
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
	f, o := m.form(), mustMap("Delta", m, b).form()
	d := NewMap()
	j, jd := 0, 0
	for _, e := range f.small {
		var ov State
		j, ov = o.find(e.Key, j)
		if dv := diffValue(e.Val, ov); dv != nil {
			jd = d.put(e.Key, dv, jd) // ascending: each goes last
		}
	}
	for k, v := range f.big {
		_, ov := o.find(k, 0)
		if dv := diffValue(v, ov); dv != nil {
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
	if !ok {
		return false
	}
	f, g := m.form(), o.form()
	if f.len() != g.len() {
		return false
	}
	j := 0
	for _, e := range f.small {
		var ov State
		if j, ov = g.find(e.Key, j); ov == nil || !e.Val.Equal(ov) {
			return false
		}
	}
	for k, v := range f.big {
		if _, ov := g.find(k, 0); ov == nil || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the map.
func (m *Map) Clone() State {
	f := m.form()
	if f.big != nil {
		big := make(map[string]State, len(f.big))
		for k, v := range f.big {
			big[k] = v.Clone()
		}
		return &Map{more: big}
	}
	c := NewMap()
	small := c.one[:0]
	if len(f.small) > 1 {
		c.more, small = newSlots[MapEntry](nil, len(f.small))
	}
	for _, e := range f.small {
		small = append(small, MapEntry{e.Key, e.Val.Clone()}) // within capacity: in place
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
