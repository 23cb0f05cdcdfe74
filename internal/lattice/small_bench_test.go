package lattice

import (
	"fmt"
	"testing"
)

// BenchmarkSmallVsMap is the crossover measurement smallMax cites: the
// operations a synchronizing replica runs per δ-group — merge a fresh
// singleton, merge a covered one, Leq of a small covered δ — on the same
// n-element set held in each of the two representations. The slice form
// holds at most smallMax elements, and a fresh one must fit, so n stops
// one short of it. Run with
//
//	go test ./internal/lattice -run '^$' -bench SmallVsMap -benchtime 200000x
func BenchmarkSmallVsMap(b *testing.B) {
	elem := func(i int) string { return fmt.Sprintf("element-%04d", i) }
	for _, n := range []int{1, 2, 4, smallMax - 1} {
		// Even positions are members; odd ones are the fresh elements,
		// spread over the whole range.
		var members []string
		big := make(map[string]struct{})
		for i := 0; i < n; i++ {
			members = append(members, elem(2*i))
			big[elem(2*i)] = struct{}{}
		}
		forms := []struct {
			name string
			set  *Set
		}{
			{"slice", NewSet(members...)},
			{"map", &Set{more: big}},
		}
		fresh := make([]*Set, n)
		covered := make([]*Set, n)
		for i := range fresh {
			fresh[i] = NewSet(elem(2*i + 1))
			covered[i] = NewSet(elem(2 * i))
		}
		group := NewSet()
		for i := 0; i < n && i < 4; i++ {
			group.Add(elem(2 * (i * n / 4)))
		}
		for _, f := range forms {
			s := f.set
			b.Run(fmt.Sprintf("merge-fresh/%s/%d", f.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := fresh[i%n].one[0]
					s.Add(e)
					// Undo, so the set stays at n elements.
					if f := s.form(); f.big != nil {
						delete(f.big, e)
					} else {
						j, _ := searchStrings(f.small, 0, e)
						copy(f.small[j:], f.small[j+1:])
						f.small[len(f.small)-1] = ""
					}
				}
			})
			b.Run(fmt.Sprintf("merge-covered/%s/%d", f.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s.Merge(covered[i%n])
				}
			})
			b.Run(fmt.Sprintf("leq-group/%s/%d", f.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !group.Leq(s) {
						b.Fatal("group not covered")
					}
				}
			})
		}
	}
}
