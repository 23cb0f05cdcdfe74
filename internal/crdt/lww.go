package crdt

import (
	"fmt"

	"crdtsync/internal/lattice"
)

// LWWRegister is a last-writer-wins register: the lexicographic product of
// a totally ordered version (timestamp broken by writer id, making writes
// unique) and an arbitrary payload. It is a chain, so every non-bottom
// state is join-irreducible and its decomposition is itself. Bottom is the
// unwritten register (timestamp 0, empty writer, empty value).
//
// This is the typical lexicographic-product CRDT of Appendix B: bumping the
// version chain lets the writer replace the payload with an arbitrary value
// while keeping the state an inflation.
type LWWRegister struct {
	TS     uint64
	Writer string
	Val    string
}

// NewLWWRegister returns an unwritten (bottom) register.
func NewLWWRegister() *LWWRegister { return &LWWRegister{} }

// WriteDelta is the δ-mutator for writing val at timestamp ts: it returns
// the new register state if it would supersede the current one, bottom
// otherwise (a stale write carries no information). The receiver is not
// mutated. ts must be ≥ 1 so that writes are non-bottom.
func (r *LWWRegister) WriteDelta(ts uint64, writer, val string) *LWWRegister {
	if ts == 0 {
		panic("crdt: LWWRegister.WriteDelta with ts == 0 is reserved for bottom")
	}
	w := &LWWRegister{TS: ts, Writer: writer, Val: val}
	if w.less(r) || w.sameVersion(r) {
		return NewLWWRegister()
	}
	return w
}

// Write applies WriteDelta in place and returns the delta.
func (r *LWWRegister) Write(ts uint64, writer, val string) *LWWRegister {
	d := r.WriteDelta(ts, writer, val)
	r.Merge(d)
	return d
}

// Value returns the current payload ("" when unwritten).
func (r *LWWRegister) Value() string { return r.Val }

// less reports strict order by (TS, Writer); Val never participates because
// (TS, Writer) identifies a write uniquely.
func (r *LWWRegister) less(o *LWWRegister) bool {
	if r.TS != o.TS {
		return r.TS < o.TS
	}
	return r.Writer < o.Writer
}

func (r *LWWRegister) sameVersion(o *LWWRegister) bool {
	return r.TS == o.TS && r.Writer == o.Writer
}

// Join returns the register with the greater (TS, Writer) version.
func (r *LWWRegister) Join(other lattice.State) lattice.State {
	o := mustLWW("Join", r, other)
	if r.less(o) {
		return o.Clone()
	}
	return r.Clone()
}

// Merge keeps the greater version in place.
func (r *LWWRegister) Merge(other lattice.State) {
	o := mustLWW("Merge", r, other)
	if r.less(o) {
		*r = *o
	}
}

// Leq reports the chain order by (TS, Writer).
func (r *LWWRegister) Leq(other lattice.State) bool {
	o := mustLWW("Leq", r, other)
	return r.less(o) || r.sameVersion(o)
}

// IsBottom reports whether the register was never written.
func (r *LWWRegister) IsBottom() bool { return r.TS == 0 && r.Writer == "" }

// Bottom returns a fresh unwritten register.
func (r *LWWRegister) Bottom() lattice.State { return NewLWWRegister() }

// Irreducibles yields the register itself: a chain element is
// join-irreducible.
func (r *LWWRegister) Irreducibles(yield func(lattice.State) bool) {
	if r.IsBottom() {
		return
	}
	yield(r.Clone())
}

// Diff implements lattice.Differ: in a chain Δ(r, b) is r itself when
// r ⋢ b and bottom otherwise.
func (r *LWWRegister) Diff(b lattice.State) lattice.State {
	if r.Leq(b) {
		return NewLWWRegister()
	}
	return r.Clone()
}

// Equal reports identical version and payload.
func (r *LWWRegister) Equal(other lattice.State) bool {
	o, ok := other.(*LWWRegister)
	return ok && r.TS == o.TS && r.Writer == o.Writer && r.Val == o.Val
}

// Clone returns a copy of the register.
func (r *LWWRegister) Clone() lattice.State {
	return &LWWRegister{TS: r.TS, Writer: r.Writer, Val: r.Val}
}

// Elements returns 1 for a written register, 0 for bottom.
func (r *LWWRegister) Elements() int {
	if r.IsBottom() {
		return 0
	}
	return 1
}

// SizeBytes returns the wire size: timestamp, writer id, and payload.
func (r *LWWRegister) SizeBytes() int { return 8 + len(r.Writer) + len(r.Val) }

// String renders the register.
func (r *LWWRegister) String() string {
	return fmt.Sprintf("LWW{ts:%d,w:%s,val:%q}", r.TS, r.Writer, r.Val)
}

func mustLWW(op string, a, b lattice.State) *LWWRegister {
	o, ok := b.(*LWWRegister)
	if !ok {
		panic(fmt.Sprintf("crdt: %s of mismatched types %T and %T", op, a, b))
	}
	return o
}
