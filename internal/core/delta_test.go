package core_test

import (
	"math/rand"
	"strconv"
	"testing"

	"crdtsync/internal/core"
	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
)

// randSet returns a random small set.
func randSet(r *rand.Rand) lattice.State {
	s := lattice.NewSet()
	for i, n := 0, r.Intn(6); i < n; i++ {
		s.Add("e" + strconv.Itoa(r.Intn(8)))
	}
	return s
}

// randGCounter returns a random small counter.
func randGCounter(r *rand.Rand) lattice.State {
	c := crdt.NewGCounter()
	for i, n := 0, r.Intn(4); i < n; i++ {
		c.Inc("r"+strconv.Itoa(r.Intn(4)), uint64(r.Intn(3)+1))
	}
	return c
}

// randMap returns a random small map of chains.
func randMap(r *rand.Rand) lattice.State {
	m := lattice.NewMap()
	for i, n := 0, r.Intn(5); i < n; i++ {
		m.Set("k"+strconv.Itoa(r.Intn(5)), lattice.NewMaxInt(uint64(r.Intn(4))))
	}
	return m
}

// wide bounds the sizes of the "-wide" generators: from empty to several
// times the slice→map promotion constant of the sets and maps (8), over a
// universe half as large again, so operands come in either
// representation, overlap partially, and joins cross the constant.
const wide = 40

func wideStr(r *rand.Rand) string { return "w" + strconv.Itoa(r.Intn(wide+wide/2)) }

func randWideSet(r *rand.Rand) lattice.State {
	s := lattice.NewSet()
	for i, n := 0, r.Intn(wide+1); i < n; i++ {
		s.Add(wideStr(r))
	}
	return s
}

func randWideGSet(r *rand.Rand) lattice.State {
	s := crdt.NewGSet()
	for i, n := 0, r.Intn(wide+1); i < n; i++ {
		s.Add(wideStr(r))
	}
	return s
}

// randLWW returns a written register; (TS, Writer) identifies a write,
// so the payload is a function of them (and of salt).
func randLWW(r *rand.Rand, salt string) *crdt.LWWRegister {
	ts, w := uint64(1+r.Intn(3)), "r"+strconv.Itoa(r.Intn(3))
	return &crdt.LWWRegister{TS: ts, Writer: w, Val: salt + "@" + strconv.FormatUint(ts, 10) + w}
}

// randLWWMap returns a map of last-writer-wins registers, the store's
// Map object; wide selects the size range.
func randLWWMap(r *rand.Rand, limit int) lattice.State {
	m := crdt.NewGMap()
	for i, n := 0, r.Intn(limit+1); i < n; i++ {
		k := "f" + strconv.Itoa(r.Intn(limit+limit/2))
		reg := randLWW(r, k)
		if cur := m.Get(k); cur != nil {
			cur.Merge(reg)
		} else {
			m.Set(k, reg)
		}
	}
	return m
}

func gens() map[string]func(*rand.Rand) lattice.State {
	return map[string]func(*rand.Rand) lattice.State{
		"set":       randSet,
		"gcounter":  randGCounter,
		"map":       randMap,
		"set-wide":  randWideSet,
		"gset":      func(r *rand.Rand) lattice.State { return crdt.NewGSet(randSet(r).(*lattice.Set).Values()...) },
		"gset-wide": randWideGSet,
		"gcounter-wide": func(r *rand.Rand) lattice.State {
			c := crdt.NewGCounter()
			for i, n := 0, r.Intn(wide+1); i < n; i++ {
				c.Inc(wideStr(r), uint64(r.Intn(3)+1))
			}
			return c
		},
		"map-wide": func(r *rand.Rand) lattice.State {
			m := lattice.NewMap()
			for i, n := 0, r.Intn(wide+1); i < n; i++ {
				m.Set(wideStr(r), lattice.NewMaxInt(uint64(r.Intn(4))))
			}
			return m
		},
		"map-of-sets-wide": func(r *rand.Rand) lattice.State {
			m := lattice.NewMap()
			for i, n := 0, r.Intn(4); i < n; i++ {
				m.Set("k"+strconv.Itoa(r.Intn(4)), randWideSet(r))
			}
			return m
		},
		"lwwmap":      func(r *rand.Rand) lattice.State { return randLWWMap(r, 4) },
		"lwwmap-wide": func(r *rand.Rand) lattice.State { return randLWWMap(r, wide) },
		"lww": func(r *rand.Rand) lattice.State {
			if r.Intn(4) == 0 {
				return crdt.NewLWWRegister()
			}
			return randLWW(r, "v")
		},
		"pncounter": func(r *rand.Rand) lattice.State {
			c := crdt.NewPNCounter()
			for i, n := 0, r.Intn(5); i < n; i++ {
				if r.Intn(2) == 0 {
					c.Inc("r"+strconv.Itoa(r.Intn(4)), uint64(r.Intn(3)+1))
				} else {
					c.Dec("r"+strconv.Itoa(r.Intn(4)), uint64(r.Intn(3)+1))
				}
			}
			return c
		},
		"twopset-wide": func(r *rand.Rand) lattice.State {
			s := crdt.NewTwoPSet()
			for i, n := 0, r.Intn(wide+1); i < n; i++ {
				if r.Intn(3) == 0 {
					s.Remove(wideStr(r))
				} else {
					s.Add(wideStr(r))
				}
			}
			return s
		},
		"awset": func(r *rand.Rand) lattice.State {
			s := crdt.NewAWSet()
			for i, n := 0, r.Intn(8); i < n; i++ {
				if r.Intn(3) == 0 {
					s.Remove("e" + strconv.Itoa(r.Intn(5)))
				} else {
					s.Add("r"+strconv.Itoa(r.Intn(3)), "e"+strconv.Itoa(r.Intn(5)))
				}
			}
			return s
		},
		"pair-wide": func(r *rand.Rand) lattice.State {
			return lattice.NewPair(randWideSet(r), randGCounter(r))
		},
	}
}

// TestDeltaMatchesDecomposition is the differential test of Δ as the
// states produce it themselves (lattice.Differ) against the paper's
// definition evaluated literally over ⇓a, on random pairs of every type
// — those without a direct Δ included, for which the two must coincide
// trivially — and checks that the result shares nothing with its
// operands.
func TestDeltaMatchesDecomposition(t *testing.T) {
	for name, gen := range gens() {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(19))
			for i := 0; i < 300; i++ {
				a, b := gen(r), gen(r)
				if i%3 == 0 {
					b = b.Join(core.Delta(a, gen(r))) // b holds part of a
				}
				snapA, snapB := a.Clone(), b.Clone()
				d, want := core.Delta(a, b), lattice.DeltaByDecomposition(a, b)
				if !d.Equal(want) || !want.Equal(d) {
					t.Fatalf("Δ(%v, %v) = %v, decomposition gives %v", a, b, d, want)
				}
				d.Merge(a)
				d.Merge(b)
				if !a.Equal(snapA) || !b.Equal(snapB) {
					t.Fatalf("Δ(%v, %v) aliases an operand", snapA, snapB)
				}
			}
		})
	}
}

// TestDeltaAllocs pins the cost of Δ on the δ-groups a store receives —
// one entry, against a state that lacks it: the result and, for a map,
// the clone of its value. The walk over ⇓a this replaced allocated eight
// times per item on the benchmark's frames.
func TestDeltaAllocs(t *testing.T) {
	cases := map[string][2]lattice.State{
		"gcounter": {crdt.NewGCounter().IncDelta("r1", 3), crdt.NewGCounter().IncDelta("r0", 5)},
		"gset":     {crdt.NewGSet("e001"), crdt.NewGSet("e002")},
		"set":      {lattice.NewSet("e001"), lattice.NewSet("e002")},
		"lwwmap": {
			lattice.NewMapEntry("m/n000001/f01", &crdt.LWWRegister{TS: 2, Writer: "r1", Val: "x"}),
			lattice.NewMapEntry("m/n000001/f01", &crdt.LWWRegister{TS: 1, Writer: "r0", Val: "y"}),
		},
		"gmap": {lattice.NewMapEntry("k", lattice.NewMaxInt(4)), lattice.NewMap()},
	}
	for name, c := range cases {
		var d lattice.State
		if n := testing.AllocsPerRun(100, func() { d = core.Delta(c[0], c[1]) }); n > 2 {
			t.Errorf("%s: Δ of a one-entry δ-group allocates %.0f times, want ≤ 2", name, n)
		}
		if !d.Equal(c[0]) {
			t.Errorf("%s: Δ(%v, %v) = %v", name, c[0], c[1], d)
		}
		if n := testing.AllocsPerRun(100, func() { d = core.Delta(c[0], c[0]) }); n > 1 {
			t.Errorf("%s: Δ of a covered δ-group allocates %.0f times, want ≤ 1", name, n)
		}
	}
}

// TestDeltaProducesJoin checks the defining property of Δ:
// Δ(a, b) ⊔ b = a ⊔ b.
func TestDeltaProducesJoin(t *testing.T) {
	for name, gen := range gens() {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			for i := 0; i < 500; i++ {
				a, b := gen(r), gen(r)
				d := core.Delta(a, b)
				if !d.Join(b).Equal(a.Join(b)) {
					t.Fatalf("Δ(%v,%v)=%v: Δ⊔b ≠ a⊔b", a, b, d)
				}
			}
		})
	}
}

// TestDeltaMinimal checks optimality: every irreducible of Δ(a, b) is
// strictly new w.r.t. b (no smaller state can produce the same join), and
// Δ(a, b) ⊑ any c with c ⊔ b = a ⊔ b. Candidate c's are built by joining
// Δ with extra random states below a.
func TestDeltaMinimal(t *testing.T) {
	for name, gen := range gens() {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(11))
			for i := 0; i < 500; i++ {
				a, b := gen(r), gen(r)
				d := core.Delta(a, b)
				d.Irreducibles(func(y lattice.State) bool {
					if y.Leq(b) {
						t.Fatalf("Δ(%v,%v) contains redundant irreducible %v", a, b, y)
					}
					return true
				})
				// Any c ⊒ Δ built from parts of a still produces a ⊔ b;
				// Δ must be below it.
				c := d.Join(core.Delta(a, d))
				if !c.Join(b).Equal(a.Join(b)) {
					continue // c is not a candidate; skip
				}
				if !d.Leq(c) {
					t.Fatalf("Δ(%v,%v)=%v not minimal vs %v", a, b, d, c)
				}
			}
		})
	}
}

// TestDeltaAgainstBottom checks Δ(a, ⊥) = a.
func TestDeltaAgainstBottom(t *testing.T) {
	for name, gen := range gens() {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(13))
			for i := 0; i < 200; i++ {
				a := gen(r)
				if d := core.Delta(a, a.Bottom()); !d.Equal(a) {
					t.Fatalf("Δ(a,⊥) = %v, want %v", d, a)
				}
				if d := core.Delta(a, a); !d.IsBottom() {
					t.Fatalf("Δ(a,a) = %v, want ⊥", d)
				}
			}
		})
	}
}

// TestDeltaMutate checks mδ(x) = Δ(m(x), x) and m(x) = x ⊔ mδ(x).
func TestDeltaMutate(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		x := randSet(r).(*lattice.Set)
		e := "e" + strconv.Itoa(r.Intn(10))
		m := func(s lattice.State) lattice.State {
			out := s.Clone().(*lattice.Set)
			out.Add(e)
			return out
		}
		d := core.DeltaMutate(m, x)
		if !x.Join(d).Equal(m(x)) {
			t.Fatalf("x ⊔ mδ(x) ≠ m(x) for x=%v e=%s", x, e)
		}
		if x.Contains(e) && !d.IsBottom() {
			t.Fatalf("mδ should be ⊥ for already-present element")
		}
		if !x.Contains(e) && d.Elements() != 1 {
			t.Fatalf("mδ should be a singleton, got %v", d)
		}
	}
}

// TestPaperExample1 checks the join-irreducibility verdicts of the paper's
// Example 1.
func TestPaperExample1(t *testing.T) {
	p1 := crdt.NewGCounter()
	p1.Inc("A", 5)
	p2 := crdt.NewGCounter()
	p2.Inc("B", 6)
	p3 := p1.Join(p2) // {A5,B7}-like two-entry state
	if !core.IsJoinIrreducible(p1) || !core.IsJoinIrreducible(p2) {
		t.Error("single-entry GCounters should be join-irreducible")
	}
	if core.IsJoinIrreducible(p3) {
		t.Error("two-entry GCounter should not be join-irreducible")
	}

	s1 := lattice.NewSet() // ⊥ is never join-irreducible
	s2 := lattice.NewSet("a")
	s3 := lattice.NewSet("a", "b")
	if core.IsJoinIrreducible(s1) {
		t.Error("bottom should not be join-irreducible")
	}
	if !core.IsJoinIrreducible(s2) {
		t.Error("singleton should be join-irreducible")
	}
	if core.IsJoinIrreducible(s3) {
		t.Error("two-element set should not be join-irreducible")
	}
}

// TestPaperExample2 checks the decomposition verdicts of the paper's
// Example 2 for the GSet s = {a,b,c}.
func TestPaperExample2(t *testing.T) {
	s := lattice.NewSet("a", "b", "c")
	sing := func(es ...string) lattice.State { return lattice.NewSet(es...) }

	s1 := []lattice.State{sing("b"), sing("c")}
	if core.IsDecomposition(s1, s) {
		t.Error("S1 joins to {b,c} ≠ s: not a decomposition")
	}
	s2 := []lattice.State{sing("a", "b"), sing("b"), sing("c")}
	if core.IsDecomposition(s2, s) {
		t.Error("S2 contains the reducible element {a,b}")
	}
	s4 := []lattice.State{sing("a"), sing("b"), sing("c")}
	if !core.IsIrredundantDecomposition(s4, s) {
		t.Error("S4 should be the irredundant join decomposition")
	}
	// Redundancy check in isolation: {a},{b},{c},{b} has a duplicate...
	red := []lattice.State{sing("a"), sing("b"), sing("c"), sing("b")}
	if core.IsIrredundant(red) {
		t.Error("decomposition with duplicate {b} should be redundant")
	}
}

// TestPNCounterDecompositionExample checks the PNCounter example closing
// Appendix C: p = {A↦⟨2,3⟩, B↦⟨5,5⟩} decomposes into four single-component
// entries.
func TestPNCounterDecompositionExample(t *testing.T) {
	p := crdt.NewPNCounter()
	p.Inc("A", 2)
	p.Dec("A", 3)
	p.Inc("B", 5)
	p.Dec("B", 5)
	d := lattice.Decompose(p)
	if len(d) != 4 {
		t.Fatalf("⇓p has %d members, want 4", len(d))
	}
	if !core.IsIrredundantDecomposition(d, p) {
		t.Error("PNCounter decomposition is not irredundant")
	}
}
