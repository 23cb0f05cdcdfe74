// Package lattice defines the join-semilattice abstraction underlying
// state-based CRDTs, together with the lattice composition techniques of
// Enes et al., "Efficient Synchronization of State-based CRDTs" (ICDE 2019),
// Appendix B/C: chains, cartesian products, lexicographic products, linear
// sums, finite functions (maps), powersets, and sets of maximal elements.
//
// Every lattice value implements State. All states used in this library are
// distributive lattices satisfying the descending chain condition, so every
// state has a unique irredundant join decomposition into join-irreducibles
// (Birkhoff), exposed through the Irreducibles method.
package lattice

import "fmt"

// State is a value of a join-semilattice with bottom. Implementations must
// be distributive lattices satisfying the descending chain condition (DCC) so
// that the irredundant join decomposition exposed by Irreducibles is unique.
//
// All methods treat the receiver and arguments as immutable, except Merge,
// which mutates the receiver in place. Join(x, y) of two different concrete
// types panics: lattices of different shapes have no common upper bound.
type State interface {
	fmt.Stringer

	// Join returns the least upper bound of the receiver and other,
	// leaving both operands unchanged.
	Join(other State) State

	// Merge replaces the receiver with the join of the receiver and
	// other. It is the in-place variant of Join, used on hot paths to
	// avoid reallocating accumulator states.
	Merge(other State)

	// Leq reports whether the receiver is below-or-equal to other in the
	// lattice partial order: x ⊑ y ⇔ x ⊔ y = y.
	Leq(other State) bool

	// IsBottom reports whether the receiver is the bottom element ⊥.
	IsBottom() bool

	// Bottom returns a fresh bottom element of the same lattice as the
	// receiver. Mutating the result never affects the receiver.
	Bottom() State

	// Irreducibles calls yield once for every element of the unique
	// irredundant join decomposition ⇓x of the receiver, stopping early
	// if yield returns false. The join of all yielded states equals the
	// receiver; each yielded state is join-irreducible; no yielded state
	// is below the join of the others. Bottom yields nothing.
	Irreducibles(yield func(State) bool)

	// Equal reports structural equality, i.e. x ⊑ y ∧ y ⊑ x.
	Equal(other State) bool

	// Clone returns a deep copy of the receiver.
	Clone() State

	// Elements returns the measurement metric used throughout the
	// paper's evaluation: the number of leaf entries in the state
	// (set elements, map entries, counter entries). Bottom is 0.
	Elements() int

	// SizeBytes returns the approximate wire size of the state in bytes,
	// used for bandwidth and memory accounting.
	SizeBytes() int
}

// Differ is implemented by states that can produce the optimal delta
// Δ(x, b) = ⊔{y ∈ ⇓x | y ⋢ b} in one walk over their own representation,
// instead of materializing every irreducible as a singleton state first.
// It is an optimization only: Diff must return exactly what
// DeltaByDecomposition does, freshly allocated and aliasing neither
// operand.
type Differ interface {
	Diff(b State) State
}

// Delta returns the minimum state Δ(a, b) that, joined with b, yields
// a ⊔ b (§III-B of the paper), asking a for it directly where the type
// implements Differ.
func Delta(a, b State) State {
	if d, ok := a.(Differ); ok {
		return d.Diff(b)
	}
	return DeltaByDecomposition(a, b)
}

// DeltaByDecomposition is Δ(a, b) computed literally as the paper defines
// it, over the join decomposition: ⊔{y ∈ ⇓a | y ⋢ b}. It works for every
// State and is the reference the Differ implementations are tested
// against.
func DeltaByDecomposition(a, b State) State {
	if a.Leq(b) {
		// Every y ∈ ⇓a satisfies y ⊑ a ⊑ b: nothing to walk.
		return a.Bottom()
	}
	d := a.Bottom()
	a.Irreducibles(func(y State) bool {
		if !y.Leq(b) {
			d.Merge(y)
		}
		return true
	})
	return d
}

// Decompose returns the unique irredundant join decomposition ⇓x as a slice.
// It is a convenience wrapper around State.Irreducibles.
func Decompose(x State) []State {
	var out []State
	x.Irreducibles(func(s State) bool {
		out = append(out, s)
		return true
	})
	return out
}

// JoinAll returns the join of all given states. It panics if states is
// empty, since the bottom of the lattice cannot be inferred.
func JoinAll(states ...State) State {
	if len(states) == 0 {
		panic("lattice: JoinAll of no states; bottom cannot be inferred")
	}
	acc := states[0].Clone()
	for _, s := range states[1:] {
		acc.Merge(s)
	}
	return acc
}

// StrictlyInflates reports whether joining d into x would change x,
// i.e. d ⋢ x. This is the inflation check used by classic delta-based
// synchronization (Algorithm 1, line 16 of the paper).
func StrictlyInflates(d, x State) bool {
	return !d.Leq(x)
}

// mismatch panics with a descriptive message for cross-type joins.
func mismatch(op string, a, b State) string {
	return fmt.Sprintf("lattice: %s of mismatched lattice types %T and %T", op, a, b)
}
