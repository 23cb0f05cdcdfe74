package codec

import "crdtsync/internal/lattice"

// KeyBufferCap returns the capacity of the buffer v rebuilds keys into.
func KeyBufferCap(v *FrameView) int { return cap(v.keys) }

// MaxRetainedKeyBytes exposes the key buffer's retained cap to the tests.
const MaxRetainedKeyBytes = maxRetainedKeyBytes

// FrameItems returns the items v kept in the order its frame wrote them:
// the keyed run in key order, then the bare items.
func FrameItems(v *FrameView) []ItemView { return v.items }

// Decode reads one state in the context-free encoding, returning it and
// the number of bytes consumed.
func Decode(data []byte) (lattice.State, int, error) { return readState(data, 0, nil) }
