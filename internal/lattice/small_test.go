package lattice_test

import (
	"runtime"
	"slices"
	"strconv"
	"testing"

	"crdtsync/internal/lattice"
)

func wideElem(i int) string { return "w" + strconv.Itoa(100+i) }

// heapPer returns the heap bytes one value built by mk holds, averaged
// over n values kept alive together, after two collections.
func heapPer(n int, mk func() lattice.State) float64 {
	var ms runtime.MemStats
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	keep := make([]lattice.State, n)
	before := heap()
	for i := range keep {
		keep[i] = mk()
	}
	after := heap()
	runtime.KeepAlive(keep)
	return float64(after-before) / float64(n)
}

// TestStateSizes pins what a set and a map hold on the heap at 1, 2, 3
// and 8 entries, keys and map values shared and so not counted. A
// one-entry value is one small object. Two and three entries, what a key
// written at each of three replicas reaches, cost no more than they did
// with the slice header in the struct (80 / 112 B for a set, 128 / 192 B
// for a map); eight entries are logged.
func TestStateSizes(t *testing.T) {
	const n = 20_000
	elems := make([]string, lattice.SmallMax)
	for i := range elems {
		elems[i] = wideElem(i)
	}
	val := lattice.NewMaxInt(1)
	for _, c := range []struct {
		name  string
		limit map[int]float64
		mk    func(k int) lattice.State
	}{
		{"set", map[int]float64{1: 32, 2: 80, 3: 112}, func(k int) lattice.State {
			return lattice.NewSet(elems[:k]...)
		}},
		{"map", map[int]float64{1: 48, 2: 128, 3: 192}, func(k int) lattice.State {
			m := lattice.NewMap()
			for _, e := range elems[:k] {
				m.Set(e, val)
			}
			return m
		}},
	} {
		for _, k := range []int{1, 2, 3, lattice.SmallMax} {
			per := heapPer(n, func() lattice.State { return c.mk(k) })
			t.Logf("%s of %d: %.1f B", c.name, k, per)
			if limit, ok := c.limit[k]; ok && per > limit+1 {
				t.Errorf("%s of %d entries holds %.1f heap bytes, want ≤ %.0f", c.name, k, per, limit)
			}
		}
	}
}

// TestSetPromotion walks a set across the promotion constant by Add and
// by Merge and checks that nothing but the representation changes.
func TestSetPromotion(t *testing.T) {
	s := lattice.NewSet()
	for i := 0; i < lattice.SmallMax; i++ {
		s.Add(wideElem(i))
	}
	if !lattice.SliceForm(s) {
		t.Fatalf("a set of SmallMax = %d elements is not in slice form", lattice.SmallMax)
	}
	atMax := s.Clone().(*lattice.Set)
	s.Add(wideElem(0)) // present: no growth
	if !lattice.SliceForm(s) {
		t.Fatal("re-adding a member promoted the set")
	}
	s.Add(wideElem(lattice.SmallMax))
	if lattice.SliceForm(s) {
		t.Fatalf("a set of %d elements is still in slice form", s.Len())
	}
	if s.Len() != lattice.SmallMax+1 || !s.Contains(wideElem(lattice.SmallMax)) {
		t.Fatalf("promotion lost elements: %v", s)
	}
	if !slices.IsSorted(s.Sorted()) || !slices.IsSorted(s.Values()) {
		t.Fatalf("map form is not rendered in order: %v", s.Sorted())
	}

	// The same crossing caused by Merge of two slice-form operands.
	half := lattice.NewSet()
	for i := lattice.SmallMax / 2; i < lattice.SmallMax+lattice.SmallMax/2; i++ {
		half.Add(wideElem(i))
	}
	merged := atMax.Clone().(*lattice.Set)
	merged.Merge(half)
	if lattice.SliceForm(merged) {
		t.Fatalf("merge to %d elements left the slice form", merged.Len())
	}
	if want := lattice.SmallMax + lattice.SmallMax/2; merged.Len() != want {
		t.Fatalf("merged size = %d, want %d", merged.Len(), want)
	}

	// Both forms of the same set are one lattice value.
	same := lattice.NewSet(merged.Values()...)
	if !same.Equal(merged) || !merged.Equal(same) || !atMax.Leq(merged) || merged.Leq(atMax) {
		t.Fatal("order or equality depends on the representation")
	}
	if d := lattice.Delta(merged, atMax).(*lattice.Set); d.Len() != lattice.SmallMax/2 || !lattice.SliceForm(d) {
		t.Fatalf("Δ(map form, slice form) = %v", d)
	}
	if j := atMax.Join(half); !j.Equal(merged) {
		t.Fatalf("Join = %v, Merge = %v", j, merged)
	}
}

// TestMapPromotion is TestSetPromotion for the finite-function lattice,
// including the removal a bottom value causes in either form.
func TestMapPromotion(t *testing.T) {
	m := lattice.NewMap()
	for i := 0; i < lattice.SmallMax; i++ {
		m.Set(wideElem(i), lattice.NewMaxInt(uint64(i+1)))
	}
	if !lattice.SliceForm(m) {
		t.Fatalf("a map of SmallMax = %d entries is not in slice form", lattice.SmallMax)
	}
	atMax := m.Clone().(*lattice.Map)
	m.Set(wideElem(0), lattice.NewMaxInt(99)) // present: replaced in place
	if !lattice.SliceForm(m) || m.Get(wideElem(0)).(*lattice.MaxInt).V != 99 {
		t.Fatal("replacing a value changed the representation or was lost")
	}
	m.Set(wideElem(lattice.SmallMax), lattice.NewMaxInt(7))
	if lattice.SliceForm(m) || m.Len() != lattice.SmallMax+1 {
		t.Fatalf("a map of %d entries: slice form %t", m.Len(), lattice.SliceForm(m))
	}
	for i, e := range m.Sorted() {
		if e.Key != wideElem(i) || m.Get(e.Key) != e.Val {
			t.Fatalf("Sorted()[%d] = %v", i, e)
		}
	}
	for _, f := range []*lattice.Map{m, atMax} {
		n := f.Len()
		f.Set(wideElem(1), lattice.NewMaxInt(0))
		if f.Len() != n-1 || f.Get(wideElem(1)) != nil {
			t.Fatalf("bottom value did not remove the entry (slice form %t)", lattice.SliceForm(f))
		}
	}

	// Crossing by Merge: the shared keys are joined, the new ones cloned.
	a, b := lattice.NewMap(), lattice.NewMap()
	for i := 0; i < lattice.SmallMax; i++ {
		a.Set(wideElem(i), lattice.NewMaxInt(2))
		b.Set(wideElem(i+lattice.SmallMax/2), lattice.NewMaxInt(3))
	}
	before := b.Clone()
	a.Merge(b)
	if lattice.SliceForm(a) || a.Len() != lattice.SmallMax+lattice.SmallMax/2 {
		t.Fatalf("merged map: %d entries, slice form %t", a.Len(), lattice.SliceForm(a))
	}
	for i := 0; i < a.Len(); i++ {
		want := uint64(3)
		if i < lattice.SmallMax/2 {
			want = 2
		}
		if got := a.Get(wideElem(i)).(*lattice.MaxInt).V; got != want {
			t.Fatalf("merged[%s] = %d, want %d", wideElem(i), got, want)
		}
	}
	a.Get(wideElem(lattice.SmallMax)).Merge(lattice.NewMaxInt(50))
	if !b.Equal(before) {
		t.Fatal("Merge aliased a value of its argument")
	}
}

// TestDeltaMatchesDecomposition is the differential test of the direct Δ
// the sets, maps and chains provide against the literal walk over ⇓a, on
// every lattice type and on both sides of the promotion constant.
func TestDeltaMatchesDecomposition(t *testing.T) {
	forAll(t, 2, func(t *testing.T, name string, xs []lattice.State) {
		a, b := xs[0], xs[1]
		snapA, snapB := a.Clone(), b.Clone()
		d, want := lattice.Delta(a, b), lattice.DeltaByDecomposition(a, b)
		if !d.Equal(want) {
			t.Fatalf("%s: Δ(%v, %v) = %v, decomposition gives %v", name, a, b, d, want)
		}
		d.Merge(a)
		d.Merge(b)
		if !a.Equal(snapA) || !b.Equal(snapB) {
			t.Fatalf("%s: Δ aliases an operand", name)
		}
	})
}

// TestMergeAllocs pins what joining a δ costs: nothing when the state
// covers it, at most one allocation (storage growth, or the clone of a
// new map value) when it is a fresh singleton.
func TestMergeAllocs(t *testing.T) {
	const runs = 100
	set, m := lattice.NewSet(), lattice.NewMap()
	var setDeltas, mapDeltas []lattice.State
	for i := 0; i < runs+1; i++ {
		setDeltas = append(setDeltas, lattice.NewSet(wideElem(i)))
		mapDeltas = append(mapDeltas, lattice.NewMapEntry(wideElem(i), lattice.NewMaxInt(1)))
	}
	for _, c := range []struct {
		name   string
		x      lattice.State
		deltas []lattice.State
	}{{"set", set, setDeltas}, {"map", m, mapDeltas}} {
		i := 0
		fresh := testing.AllocsPerRun(runs, func() {
			c.x.Merge(c.deltas[i]) // walks across the promotion constant
			i++
		})
		if fresh > 1 {
			t.Errorf("%s: merging a fresh singleton allocates %.0f times, want ≤ 1", c.name, fresh)
		}
		for _, n := range []int{1, lattice.SmallMax, runs} {
			x := c.x.Bottom()
			for _, d := range c.deltas[:n] {
				x.Merge(d)
			}
			i = 0
			covered := testing.AllocsPerRun(runs, func() {
				x.Merge(c.deltas[i%n])
				i++
			})
			if covered != 0 {
				t.Errorf("%s of %d: merging a covered δ allocates %.0f times, want 0", c.name, n, covered)
			}
		}
	}
}
