// Package core implements the primary contribution of Enes et al.,
// "Efficient Synchronization of State-based CRDTs" (ICDE 2019):
//
//   - optimal deltas Δ(a, b) derived from irredundant join decompositions
//     (§III-B of the paper);
//   - decomposition validators used by the property-based test suite
//     (Definitions 1–3);
//   - the origin-tagged δ-buffer behind the BP (avoid back-propagation)
//     and RR (remove redundant state) optimizations of Algorithm 1 (§IV).
//
// The synchronization protocols themselves (classic delta-based, BP, RR,
// state-based, Scuttlebutt, op-based) are assembled from these pieces in
// package protocol.
package core

import "crdtsync/internal/lattice"

// Delta returns the minimum state Δ(a, b) = ⊔{y ∈ ⇓a | y ⋢ b} that, joined
// with b, yields a ⊔ b. It is optimal: any c with c ⊔ b = a ⊔ b satisfies
// Δ(a, b) ⊑ c (§III-B of the paper).
//
// States that implement lattice.Differ (the counters, sets, maps and
// chains the stores replicate) produce Δ in one walk over their own
// entries — one result allocation instead of a singleton state per
// irreducible; every other state goes through the literal walk over ⇓a,
// lattice.DeltaByDecomposition, which is also the reference the direct
// ones are tested against.
//
// The result is freshly allocated and never aliases a or b.
func Delta(a, b lattice.State) lattice.State { return lattice.Delta(a, b) }

// DeltaMutate lifts a standard mutator m into its optimal δ-mutator:
// mδ(x) = Δ(m(x), x). The mutator must be an inflation (x ⊑ m(x)) and must
// not mutate its argument.
func DeltaMutate(m func(lattice.State) lattice.State, x lattice.State) lattice.State {
	return Delta(m(x), x)
}

// IsJoinIrreducible reports whether x is join-irreducible according to its
// own decomposition: non-bottom and with ⇓x = {x}. For the distributive
// DCC lattices in this library this coincides with Definition 1 of the
// paper.
func IsJoinIrreducible(x lattice.State) bool {
	if x.IsBottom() {
		return false
	}
	n := 0
	sole := true
	x.Irreducibles(func(y lattice.State) bool {
		n++
		if n > 1 || !y.Equal(x) {
			sole = false
			return false
		}
		return true
	})
	return n == 1 && sole
}

// IsDecomposition reports whether D is a join decomposition of x:
// all members join-irreducible and ⊔D = x (Definition 2).
func IsDecomposition(d []lattice.State, x lattice.State) bool {
	join := x.Bottom()
	for _, y := range d {
		if !IsJoinIrreducible(y) {
			return false
		}
		join.Merge(y)
	}
	return join.Equal(x)
}

// IsIrredundant reports whether no member of D is redundant: removing any
// single member strictly lowers the join (Definition 3). For decompositions
// into join-irreducibles of a distributive lattice, checking single-element
// removal suffices.
func IsIrredundant(d []lattice.State) bool {
	if len(d) == 0 {
		return true
	}
	proto := d[0]
	for i := range d {
		rest := proto.Bottom()
		for j, y := range d {
			if j != i {
				rest.Merge(y)
			}
		}
		if d[i].Leq(rest) {
			return false
		}
	}
	return true
}

// IsIrredundantDecomposition reports whether D is the irredundant join
// decomposition of x, i.e. both IsDecomposition and IsIrredundant hold.
func IsIrredundantDecomposition(d []lattice.State, x lattice.State) bool {
	return IsDecomposition(d, x) && IsIrredundant(d)
}
