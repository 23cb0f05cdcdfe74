package lattice_test

import (
	"math/rand"
	"strconv"
	"testing"

	"crdtsync/internal/core"
	"crdtsync/internal/lattice"
)

// genFunc produces a random state of one lattice type.
type genFunc func(r *rand.Rand) lattice.State

// elemOrder is a fixed partial order on strings for Maximals tests:
// a ⊑ b iff a is a prefix of b.
func prefixOrder(a, b string) bool {
	return len(a) <= len(b) && b[:len(a)] == a
}

var prefixes = []string{"x", "xa", "xab", "xb", "y", "ya", "z"}

// generators returns one random-state generator per lattice type. Each
// generator may return bottom.
func generators() map[string]genFunc {
	smallStr := func(r *rand.Rand) string { return "e" + strconv.Itoa(r.Intn(6)) }
	genMax := func(r *rand.Rand) lattice.State { return lattice.NewMaxInt(uint64(r.Intn(5))) }
	genFlag := func(r *rand.Rand) lattice.State { return lattice.NewFlag(r.Intn(2) == 0) }
	genSet := func(r *rand.Rand) lattice.State {
		s := lattice.NewSet()
		for i, n := 0, r.Intn(4); i < n; i++ {
			s.Add(smallStr(r))
		}
		return s
	}
	genMap := func(r *rand.Rand) lattice.State {
		m := lattice.NewMap()
		for i, n := 0, r.Intn(4); i < n; i++ {
			m.Set("k"+strconv.Itoa(r.Intn(4)), lattice.NewMaxInt(uint64(r.Intn(4))))
		}
		return m
	}
	// The wide generators straddle the slice→map promotion constant:
	// sizes run from empty to twice SmallMax over a universe three times
	// it, so operands come in both forms, overlap partially, and joins of
	// two slice-form operands cross the constant.
	wideStr := func(r *rand.Rand) string { return "w" + strconv.Itoa(r.Intn(3*lattice.SmallMax)) }
	genWideSet := func(r *rand.Rand) lattice.State {
		s := lattice.NewSet()
		for i, n := 0, r.Intn(2*lattice.SmallMax+1); i < n; i++ {
			s.Add(wideStr(r))
		}
		return s
	}
	// The edge generators sit on the seams of the slice form: the element
	// "" (the struct's slot cannot hold it, so {""} lives in an array), maps
	// that grow past one entry and shrink back as values go to bottom, and
	// values of SmallMax or SmallMax+1 entries, either side of promotion.
	edgeStr := func(r *rand.Rand) string { return []string{"", "a", "b"}[r.Intn(3)] }
	promoStr := func(r *rand.Rand) string { return "w" + strconv.Itoa(r.Intn(lattice.SmallMax+2)) }
	return map[string]genFunc{
		"set-edge": func(r *rand.Rand) lattice.State {
			s := lattice.NewSet()
			for i, n := 0, r.Intn(4); i < n; i++ {
				s.Add(edgeStr(r))
			}
			return s
		},
		"map-shrink": func(r *rand.Rand) lattice.State {
			m := lattice.NewMap()
			for i, n := 0, r.Intn(8); i < n; i++ {
				m.Set(edgeStr(r), lattice.NewMaxInt(uint64(r.Intn(3)))) // 0 is bottom: a delete
			}
			return m
		},
		"set-promotion": func(r *rand.Rand) lattice.State {
			s := lattice.NewSet()
			for n := lattice.SmallMax + r.Intn(2); s.Len() < n; {
				s.Add(promoStr(r))
			}
			return s
		},
		"map-promotion": func(r *rand.Rand) lattice.State {
			m := lattice.NewMap()
			for n := lattice.SmallMax + r.Intn(2); m.Len() < n; {
				m.Set(promoStr(r), lattice.NewMaxInt(uint64(1+r.Intn(3))))
			}
			return m
		},
		"set-wide": genWideSet,
		"map-wide": func(r *rand.Rand) lattice.State {
			m := lattice.NewMap()
			for i, n := 0, r.Intn(2*lattice.SmallMax+1); i < n; i++ {
				m.Set(wideStr(r), lattice.NewMaxInt(uint64(r.Intn(4))))
			}
			return m
		},
		"nested-map-wide": func(r *rand.Rand) lattice.State {
			m := lattice.NewMap()
			for i, n := 0, r.Intn(3); i < n; i++ {
				m.Set("k"+strconv.Itoa(r.Intn(3)), genWideSet(r))
			}
			return m
		},
		"maxint": genMax,
		"flag":   genFlag,
		"set":    genSet,
		"map":    genMap,
		"nested-map": func(r *rand.Rand) lattice.State {
			m := lattice.NewMap()
			for i, n := 0, r.Intn(3); i < n; i++ {
				m.Set("k"+strconv.Itoa(r.Intn(3)), genSet(r))
			}
			return m
		},
		"pair": func(r *rand.Rand) lattice.State {
			return lattice.NewPair(genSet(r), genMax(r))
		},
		"lexpair": func(r *rand.Rand) lattice.State {
			return lattice.NewLexPair(genMax(r), genSet(r))
		},
		"sum": func(r *rand.Rand) lattice.State {
			if r.Intn(2) == 0 {
				return lattice.NewSumLeft(genSet(r), lattice.NewMaxInt(0))
			}
			return lattice.NewSumRight(genMax(r), lattice.NewSet())
		},
		"maximals": func(r *rand.Rand) lattice.State {
			m := lattice.NewMaximals(prefixOrder)
			for i, n := 0, r.Intn(4); i < n; i++ {
				m.Merge(lattice.NewMaximals(prefixOrder, prefixes[r.Intn(len(prefixes))]))
			}
			return m
		},
	}
}

const trials = 300

// forAll runs fn on random state tuples of every lattice type.
func forAll(t *testing.T, arity int, fn func(t *testing.T, name string, xs []lattice.State)) {
	t.Helper()
	for name, gen := range generators() {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			for i := 0; i < trials; i++ {
				xs := make([]lattice.State, arity)
				for j := range xs {
					xs[j] = gen(r)
				}
				fn(t, name, xs)
				if t.Failed() {
					return
				}
			}
		})
	}
}

func TestJoinCommutative(t *testing.T) {
	forAll(t, 2, func(t *testing.T, name string, xs []lattice.State) {
		a, b := xs[0], xs[1]
		if !a.Join(b).Equal(b.Join(a)) {
			t.Errorf("%s: a⊔b ≠ b⊔a for a=%v b=%v", name, a, b)
		}
	})
}

func TestJoinAssociative(t *testing.T) {
	forAll(t, 3, func(t *testing.T, name string, xs []lattice.State) {
		a, b, c := xs[0], xs[1], xs[2]
		l := a.Join(b).Join(c)
		r := a.Join(b.Join(c))
		if !l.Equal(r) {
			t.Errorf("%s: (a⊔b)⊔c ≠ a⊔(b⊔c) for a=%v b=%v c=%v", name, a, b, c)
		}
	})
}

func TestJoinIdempotent(t *testing.T) {
	forAll(t, 1, func(t *testing.T, name string, xs []lattice.State) {
		a := xs[0]
		if !a.Join(a).Equal(a) {
			t.Errorf("%s: a⊔a ≠ a for a=%v", name, a)
		}
	})
}

func TestBottomIsIdentity(t *testing.T) {
	forAll(t, 1, func(t *testing.T, name string, xs []lattice.State) {
		a := xs[0]
		if !a.Join(a.Bottom()).Equal(a) {
			t.Errorf("%s: a⊔⊥ ≠ a for a=%v", name, a)
		}
		if !a.Bottom().IsBottom() {
			t.Errorf("%s: Bottom() not IsBottom", name)
		}
		if !a.Bottom().Leq(a) {
			t.Errorf("%s: ⊥ ⋢ a for a=%v", name, a)
		}
	})
}

func TestLeqAgreesWithJoin(t *testing.T) {
	forAll(t, 2, func(t *testing.T, name string, xs []lattice.State) {
		a, b := xs[0], xs[1]
		// x ⊑ y ⇔ x ⊔ y = y (the paper's definition of the order).
		if got, want := a.Leq(b), a.Join(b).Equal(b); got != want {
			t.Errorf("%s: Leq=%t but join-test=%t for a=%v b=%v", name, got, want, a, b)
		}
	})
}

func TestLeqPartialOrder(t *testing.T) {
	forAll(t, 3, func(t *testing.T, name string, xs []lattice.State) {
		a, b, c := xs[0], xs[1], xs[2]
		if !a.Leq(a) {
			t.Errorf("%s: Leq not reflexive for %v", name, a)
		}
		if a.Leq(b) && b.Leq(a) && !a.Equal(b) {
			t.Errorf("%s: Leq not antisymmetric for %v, %v", name, a, b)
		}
		if a.Leq(b) && b.Leq(c) && !a.Leq(c) {
			t.Errorf("%s: Leq not transitive for %v ⊑ %v ⊑ %v", name, a, b, c)
		}
	})
}

func TestJoinIsUpperBound(t *testing.T) {
	forAll(t, 2, func(t *testing.T, name string, xs []lattice.State) {
		a, b := xs[0], xs[1]
		j := a.Join(b)
		if !a.Leq(j) || !b.Leq(j) {
			t.Errorf("%s: join %v not an upper bound of %v, %v", name, j, a, b)
		}
	})
}

func TestMergeMatchesJoin(t *testing.T) {
	forAll(t, 2, func(t *testing.T, name string, xs []lattice.State) {
		a, b := xs[0], xs[1]
		want := a.Join(b)
		got := a.Clone()
		got.Merge(b)
		if !got.Equal(want) {
			t.Errorf("%s: Merge result %v ≠ Join result %v", name, got, want)
		}
	})
}

func TestCloneIndependent(t *testing.T) {
	forAll(t, 2, func(t *testing.T, name string, xs []lattice.State) {
		a, b := xs[0], xs[1]
		c := a.Clone()
		if !c.Equal(a) {
			t.Fatalf("%s: clone %v ≠ original %v", name, c, a)
		}
		snapshot := a.Clone()
		c.Merge(b)
		if !a.Equal(snapshot) {
			t.Errorf("%s: mutating clone changed original: %v vs %v", name, a, snapshot)
		}
	})
}

func TestDecompositionLaws(t *testing.T) {
	forAll(t, 1, func(t *testing.T, name string, xs []lattice.State) {
		a := xs[0]
		d := lattice.Decompose(a)
		if a.IsBottom() {
			if len(d) != 0 {
				t.Errorf("%s: bottom decomposes to %v, want empty", name, d)
			}
			return
		}
		if !core.IsIrredundantDecomposition(d, a) {
			t.Errorf("%s: ⇓%v = %v is not an irredundant join decomposition", name, a, d)
		}
		for _, y := range d {
			if !y.Leq(a) {
				t.Errorf("%s: irreducible %v ⋢ %v", name, y, a)
			}
			if !core.IsJoinIrreducible(y) {
				t.Errorf("%s: decomposition member %v is not join-irreducible", name, y)
			}
		}
	})
}

func TestElementsAndSize(t *testing.T) {
	forAll(t, 1, func(t *testing.T, name string, xs []lattice.State) {
		a := xs[0]
		if a.IsBottom() && a.Elements() != 0 {
			t.Errorf("%s: bottom has %d elements, want 0", name, a.Elements())
		}
		if !a.IsBottom() && a.Elements() <= 0 {
			t.Errorf("%s: non-bottom %v has %d elements, want > 0", name, a, a.Elements())
		}
		if a.SizeBytes() < 0 {
			t.Errorf("%s: negative SizeBytes", name)
		}
	})
}

func TestIrreduciblesEarlyStop(t *testing.T) {
	forAll(t, 1, func(t *testing.T, name string, xs []lattice.State) {
		a := xs[0]
		if len(lattice.Decompose(a)) < 2 {
			return
		}
		n := 0
		a.Irreducibles(func(lattice.State) bool {
			n++
			return false
		})
		if n != 1 {
			t.Errorf("%s: yield returning false did not stop iteration (n=%d)", name, n)
		}
	})
}

func TestJoinAll(t *testing.T) {
	forAll(t, 3, func(t *testing.T, name string, xs []lattice.State) {
		want := xs[0].Join(xs[1]).Join(xs[2])
		got := lattice.JoinAll(xs...)
		if !got.Equal(want) {
			t.Errorf("%s: JoinAll %v ≠ chained joins %v", name, got, want)
		}
	})
}

func TestJoinAllEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("JoinAll() of nothing should panic")
		}
	}()
	lattice.JoinAll()
}

func TestCrossTypeJoinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cross-type join should panic")
		}
	}()
	lattice.NewMaxInt(1).Join(lattice.NewSet("a"))
}
