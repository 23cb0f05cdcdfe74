package lattice

// SmallMax exposes the slice→map promotion constant to the tests, which
// generate states on both sides of it.
const SmallMax = smallMax

// SliceForm reports whether a Set or Map currently holds its entries as
// a sorted slice (true) or a Go map (false).
func SliceForm(s State) bool {
	switch v := s.(type) {
	case *Set:
		return v.form().big == nil
	case *Map:
		return v.form().big == nil
	}
	panic("lattice: SliceForm of " + s.String())
}
