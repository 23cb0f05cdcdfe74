package lattice

import (
	"fmt"
	"strconv"
)

// MaxInt is the chain of natural numbers under max, the building block of
// grow-only counters. Bottom is 0. Every non-zero value is join-irreducible
// (a chain has exactly one link below each element in its Hasse diagram).
type MaxInt struct {
	V uint64
}

// NewMaxInt returns the chain element with value v.
func NewMaxInt(v uint64) *MaxInt { return &MaxInt{V: v} }

// Join returns the maximum of the two chain values.
func (m *MaxInt) Join(other State) State {
	o := mustMaxInt("Join", m, other)
	if o.V > m.V {
		return &MaxInt{V: o.V}
	}
	return &MaxInt{V: m.V}
}

// Merge replaces the receiver with the maximum of the two values.
func (m *MaxInt) Merge(other State) {
	o := mustMaxInt("Merge", m, other)
	if o.V > m.V {
		m.V = o.V
	}
}

// Leq reports m.V <= other.V; a chain is totally ordered.
func (m *MaxInt) Leq(other State) bool {
	return m.V <= mustMaxInt("Leq", m, other).V
}

// IsBottom reports whether the value is 0.
func (m *MaxInt) IsBottom() bool { return m.V == 0 }

// Bottom returns a fresh zero chain element.
func (m *MaxInt) Bottom() State { return &MaxInt{} }

// Irreducibles yields the value itself: every non-bottom element of a chain
// is join-irreducible (⇓c = {c}, Appendix C of the paper).
func (m *MaxInt) Irreducibles(yield func(State) bool) {
	if m.V == 0 {
		return
	}
	yield(&MaxInt{V: m.V})
}

// Diff implements Differ: in a chain Δ(m, b) is m itself when m ⋢ b and
// bottom otherwise.
func (m *MaxInt) Diff(b State) State {
	if m.Leq(b) {
		return &MaxInt{}
	}
	return &MaxInt{V: m.V}
}

// Equal reports value equality.
func (m *MaxInt) Equal(other State) bool {
	o, ok := other.(*MaxInt)
	return ok && o.V == m.V
}

// Clone returns a copy of the chain element.
func (m *MaxInt) Clone() State { return &MaxInt{V: m.V} }

// Elements returns 1 for non-bottom values, 0 for bottom.
func (m *MaxInt) Elements() int {
	if m.V == 0 {
		return 0
	}
	return 1
}

// SizeBytes returns the wire size of a 64-bit integer.
func (m *MaxInt) SizeBytes() int { return 8 }

// String renders the value.
func (m *MaxInt) String() string { return strconv.FormatUint(m.V, 10) }

func mustMaxInt(op string, a State, b State) *MaxInt {
	o, ok := b.(*MaxInt)
	if !ok {
		panic(mismatch(op, a, b))
	}
	return o
}

// Flag is the two-element boolean chain false ⊑ true, with join = or.
// Bottom is false.
type Flag struct {
	V bool
}

// NewFlag returns a chain element with the given boolean value.
func NewFlag(v bool) *Flag { return &Flag{V: v} }

// Join returns the logical or of the two flags.
func (f *Flag) Join(other State) State {
	o := mustFlag("Join", f, other)
	return &Flag{V: f.V || o.V}
}

// Merge replaces the receiver with the logical or of the two flags.
func (f *Flag) Merge(other State) {
	o := mustFlag("Merge", f, other)
	f.V = f.V || o.V
}

// Leq reports the boolean order false ⊑ true.
func (f *Flag) Leq(other State) bool {
	o := mustFlag("Leq", f, other)
	return !f.V || o.V
}

// IsBottom reports whether the flag is false.
func (f *Flag) IsBottom() bool { return !f.V }

// Bottom returns a fresh false flag.
func (f *Flag) Bottom() State { return &Flag{} }

// Irreducibles yields {true} for true, nothing for false.
func (f *Flag) Irreducibles(yield func(State) bool) {
	if f.V {
		yield(&Flag{V: true})
	}
}

// Equal reports value equality.
func (f *Flag) Equal(other State) bool {
	o, ok := other.(*Flag)
	return ok && o.V == f.V
}

// Clone returns a copy of the flag.
func (f *Flag) Clone() State { return &Flag{V: f.V} }

// Elements returns 1 for true, 0 for false.
func (f *Flag) Elements() int {
	if f.V {
		return 1
	}
	return 0
}

// SizeBytes returns the wire size of a boolean.
func (f *Flag) SizeBytes() int { return 1 }

// String renders the flag.
func (f *Flag) String() string { return fmt.Sprintf("%t", f.V) }

func mustFlag(op string, a State, b State) *Flag {
	o, ok := b.(*Flag)
	if !ok {
		panic(mismatch(op, a, b))
	}
	return o
}
