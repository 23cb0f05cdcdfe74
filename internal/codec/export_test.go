package codec

// KeyBufferCap returns the capacity of the buffer v rebuilds keys into.
func KeyBufferCap(v *FrameView) int { return cap(v.keys) }

// MaxRetainedKeyBytes exposes the key buffer's retained cap to the tests.
const MaxRetainedKeyBytes = maxRetainedKeyBytes
