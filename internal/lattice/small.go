package lattice

// smallMax is the largest number of entries Set and Map (and through them
// crdt.GSet and the grow-only maps) keep as a sorted slice; the insert
// that would exceed it promotes the value to a Go map, for good. The form
// follows from the size a value has been seen to reach — there is no
// knob.
//
// Provenance: BenchmarkSmallVsMap (small_bench_test.go), medians of five
// runs on the 2-core reference box, go1.24, slice form against map form
// of the same set at 4 / 8 / 16 / 32 elements:
//
//	merge a fresh singleton   62  69 137 138 ns   against  50  49  57  72
//	merge a covered singleton 30  33  57  58 ns   against  23  24  25  24
//	Leq of a 4-element δ      95  98 114 185 ns   against  67  93  65  64
//
// Up to eight entries the slice costs 1.0–1.4× the map's time, past
// eight 1.7–2.9×, while it is smaller throughout: a one-element set is
// one 48-byte object against 264 bytes of map header and first group,
// eight elements 176 bytes against the same 264. Eight is also what one
// swiss-map group holds, so promotion happens where the map would stop
// being a single group anyway.
const smallMax = 8

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
