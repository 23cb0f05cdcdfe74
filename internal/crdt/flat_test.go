package crdt_test

import (
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"crdtsync/internal/core"
	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
)

// The GCounter and GSet are slice-backed (the GSet up to the promotion
// constant of lattice.Set, 8). These tests run them against plain Go
// maps as the model, at sizes from empty to several times that constant.

const wide = 40

func wideID(r *rand.Rand) string { return "w" + strconv.Itoa(r.Intn(wide+wide/2)) }

func TestGSetAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	gen := func() (*crdt.GSet, map[string]bool) {
		s, model := crdt.NewGSet(), make(map[string]bool)
		for i, n := 0, r.Intn(wide+1); i < n; i++ {
			e := wideID(r)
			if d := s.Add(e); d.IsBottom() != model[e] {
				t.Fatalf("Add(%s) returned %v with the element present = %t", e, d, model[e])
			}
			model[e] = true
		}
		return s, model
	}
	for i := 0; i < 300; i++ {
		a, ma := gen()
		b, mb := gen()
		subset, union, diff := true, len(mb), 0
		for e := range ma {
			if !a.Contains(e) {
				t.Fatalf("%v lacks %s", a, e)
			}
			if !mb[e] {
				subset = false
				union++
				diff++
			}
		}
		if a.Len() != len(ma) || !slices.IsSorted(a.Values()) || len(a.Values()) != len(ma) {
			t.Fatalf("%v: Len %d, Values %v, model has %d", a, a.Len(), a.Values(), len(ma))
		}
		if a.Leq(b) != subset {
			t.Fatalf("%v ⊑ %v = %t, want %t", a, b, a.Leq(b), subset)
		}
		if d := core.Delta(a, b).(*crdt.GSet); d.Len() != diff || !d.Leq(a) {
			t.Fatalf("Δ(%v, %v) = %v, want %d elements of a", a, b, d, diff)
		}
		j := a.Join(b).(*crdt.GSet)
		c := a.Clone().(*crdt.GSet)
		c.Merge(b)
		if j.Len() != union || !j.Equal(c) || !c.Equal(j) || !a.Leq(j) || !b.Leq(j) {
			t.Fatalf("%v ⊔ %v = %v (Merge: %v), want %d elements", a, b, j, c, union)
		}
		if a.Len() != len(ma) || b.Len() != len(mb) {
			t.Fatal("Join, Clone or Merge changed an operand")
		}
		if !a.IsBottom() && !core.IsIrredundantDecomposition(lattice.Decompose(a), a) {
			t.Fatalf("⇓%v is not an irredundant join decomposition", a)
		}
	}
}

func TestGCounterAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	gen := func() (*crdt.GCounter, map[string]uint64) {
		c, model := crdt.NewGCounter(), make(map[string]uint64)
		for i, n := 0, r.Intn(wide+1); i < n; i++ {
			id, by := wideID(r), uint64(1+r.Intn(3))
			if d := c.Inc(id, by); d.Entry(id) != model[id]+by || d.Elements() != 1 {
				t.Fatalf("Inc(%s, %d) returned %v over %d", id, by, d, model[id])
			}
			model[id] += by
		}
		return c, model
	}
	for i := 0; i < 300; i++ {
		a, ma := gen()
		b, mb := gen()
		leq, diff := true, 0
		var sum uint64
		for id, n := range ma {
			sum += n
			if a.Entry(id) != n {
				t.Fatalf("%v[%s] = %d, want %d", a, id, a.Entry(id), n)
			}
			if n > mb[id] {
				leq = false
				diff++
			}
		}
		var ids []string
		a.Range(func(id string, _ uint64) bool { ids = append(ids, id); return true })
		if a.Value() != sum || a.Elements() != len(ma) || !slices.IsSorted(ids) || len(ids) != len(ma) {
			t.Fatalf("%v: Value %d (want %d), Elements %d (want %d), Range %v", a, a.Value(), sum, a.Elements(), len(ma), ids)
		}
		if a.Leq(b) != leq {
			t.Fatalf("%v ⊑ %v = %t, want %t", a, b, a.Leq(b), leq)
		}
		if d := core.Delta(a, b); d.Elements() != diff || !d.Leq(a) {
			t.Fatalf("Δ(%v, %v) = %v, want %d entries of a", a, b, d, diff)
		}
		j := a.Join(b).(*crdt.GCounter)
		c := a.Clone().(*crdt.GCounter)
		c.Merge(b)
		for id := range mb {
			ma[id] = max(ma[id], mb[id])
		}
		for id, n := range ma {
			if j.Entry(id) != n {
				t.Fatalf("(%v ⊔ %v)[%s] = %d, want %d", a, b, id, j.Entry(id), n)
			}
		}
		if j.Elements() != len(ma) || !j.Equal(c) || !c.Equal(j) {
			t.Fatalf("%v ⊔ %v = %v (Merge: %v), want %d entries", a, b, j, c, len(ma))
		}
		if !a.IsBottom() && !core.IsIrredundantDecomposition(lattice.Decompose(a), a) {
			t.Fatalf("⇓%v is not an irredundant join decomposition", a)
		}
	}
}

// TestStateSizes pins what a counter holds on the heap with 1, 2, 3 and 8
// replicas' entries, replica ids shared and so not counted. A counter one
// replica has written is one 32-byte object. Two and three entries, what
// a key written at each of three replicas reaches, cost no more than they
// did with the slice header in the struct (96 / 144 B); eight are logged.
func TestStateSizes(t *testing.T) {
	const n = 20_000
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = "r" + strconv.Itoa(1000+i)
	}
	var ms runtime.MemStats
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	limits := map[int]float64{1: 32, 2: 96, 3: 144}
	for _, k := range []int{1, 2, 3, len(ids)} {
		keep := make([]*crdt.GCounter, n)
		before := heap()
		for i := range keep {
			c := crdt.NewGCounter()
			for _, id := range ids[:k] {
				c.Merge(crdt.NewGCounter().IncDelta(id, 1))
			}
			keep[i] = c
		}
		per := float64(heap()-before) / n
		runtime.KeepAlive(keep)
		t.Logf("counter of %d: %.1f B", k, per)
		if limit, ok := limits[k]; ok && per > limit+1 {
			t.Errorf("a counter of %d entries holds %.1f heap bytes, want ≤ %.0f", k, per, limit)
		}
	}
}

// TestMergeAllocs pins what joining a δ into a counter or a set costs:
// nothing when the state covers it, at most one allocation (storage
// growth) when it is a fresh singleton — at every size, across the set's
// promotion to a map.
func TestMergeAllocs(t *testing.T) {
	const runs = 100
	id := func(i int) string { return "r" + strconv.Itoa(1000+i) }
	var incs, adds []lattice.State
	for i := 0; i <= runs; i++ {
		incs = append(incs, crdt.NewGCounter().IncDelta(id(i), 2))
		adds = append(adds, crdt.NewGSet(id(i)))
	}
	for _, c := range []struct {
		name   string
		deltas []lattice.State
	}{{"gcounter", incs}, {"gset", adds}} {
		x, i := c.deltas[0].Bottom(), 0
		if n := testing.AllocsPerRun(runs, func() { x.Merge(c.deltas[i]); i++ }); n > 1 {
			t.Errorf("%s: merging a fresh singleton allocates %.0f times, want ≤ 1", c.name, n)
		}
		for _, size := range []int{1, 3, 8, 9, runs} {
			x, i = c.deltas[0].Bottom(), 0
			for _, d := range c.deltas[:size] {
				x.Merge(d)
			}
			if n := testing.AllocsPerRun(runs, func() { x.Merge(c.deltas[i%size]); i++ }); n != 0 {
				t.Errorf("%s of %d: merging a covered δ allocates %.0f times, want 0", c.name, size, n)
			}
		}
	}
}
