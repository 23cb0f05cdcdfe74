package lattice

// smallMax is the largest number of entries Set and Map (and through them
// crdt.GSet and the grow-only maps) keep in their slice form; the insert
// that would exceed it promotes the value to a Go map, for good. The form
// follows from the size a value has been seen to reach — there is no
// knob.
//
// Provenance: BenchmarkSmallVsMap (small_bench_test.go), medians of five
// runs on the 2-core reference box, go1.24, slice form against map form
// of the same set at 4 / 8 / 16 / 32 elements, measured while the slice
// form could still grow past eight:
//
//	merge a fresh singleton   62  69 137 138 ns   against  50  49  57  72
//	merge a covered singleton 30  33  57  58 ns   against  23  24  25  24
//	Leq of a 4-element δ      95  98 114 185 ns   against  67  93  65  64
//
// Up to eight entries the slice costs 1.0–1.4× the map's time, past
// eight 1.7–2.9×, while it is smaller throughout: a one-element set is
// one 32-byte object against 264 bytes of map header and first group,
// eight elements 160 bytes against the same 264. Eight is also what one
// swiss-map group holds, so promotion happens where the map would stop
// being a single group anyway.
const smallMax = 8

// The slice form of a Set or Map keeps the entry of a one-entry value in
// the value's own struct, so that the value is one small object, and
// from two entries on all of them, ascending, in an array of 2, 4 or
// smallMax slots (the fewest that hold them) behind the one interface
// word the struct has left, where the map form keeps its Go map. Unused
// slots at the end of an array are zero: that is how a value finds its
// length, with no count stored. A Go slice of the entries is a view of
// the array, so Sorted hands it out without copying.

// slots returns the array behind more as a slice of all its slots, nil
// when more holds no array.
func slots[T any](more any) []T {
	switch a := more.(type) {
	case *[2]T:
		return a[:]
	case *[4]T:
		return a[:]
	case *[smallMax]T:
		return a[:]
	}
	return nil
}

// newSlots returns a fresh array of 2, 4 or smallMax slots, the fewest
// that hold n entries, with s copied to its start, and the view of that
// copy: length len(s), capacity the array's.
func newSlots[T any](s []T, n int) (any, []T) {
	var more any
	var a []T
	switch {
	case n <= 2:
		p := new([2]T)
		more, a = p, p[:]
	case n <= 4:
		p := new([4]T)
		more, a = p, p[:]
	default:
		p := new([smallMax]T)
		more, a = p, p[:]
	}
	return more, a[:copy(a, s)]
}

// insertAt puts x at position i of s, in place: s has room for it.
func insertAt[T any](s []T, i int, x T) {
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = x
}

// searchStrings returns the position of k in the ascending slice s, or
// the position it would be inserted at, and whether it is present. The
// search covers s[from:] only: a walk over ascending keys passes the last
// position found, so each search is over what is left. (Written out
// because slices.BinarySearch, which compares three-way, measured 1.5×
// slower in BenchmarkSmallVsMap; Map and crdt.GCounter carry the same
// loop over their own entry types.)
func searchStrings(s []string, from int, k string) (int, bool) {
	lo, hi := from, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo] == k
}
