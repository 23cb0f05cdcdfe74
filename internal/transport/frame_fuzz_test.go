package transport

import (
	"bytes"
	"testing"
)

// FuzzReadFrame hammers the frame parser — the first code hostile bytes
// hit on every connection, and the same framing the fault injector
// reassembles on both the write and read sides — with arbitrary input.
// Any frame it accepts must survive a write/read round trip unchanged.
func FuzzReadFrame(f *testing.F) {
	seed := func(from string, msg []byte) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, from, msg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed("node-7", []byte("payload"))
	seed("", nil)
	seed("s-00", bytes.Repeat([]byte{0xab}, 300))
	f.Add([]byte{0, 0, 0, 3, 0, 1, 'a'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})     // length far beyond the cap
	f.Add([]byte{0, 0, 0, 5, 0, 9, 'x', 'y'}) // sender length past the body
	// What a connection opens with: a hello (version 1, 64 shards,
	// reaching s-01), then a data frame behind it in the same stream.
	hello := []byte{77, 1, 64, 1, 4, 's', '-', '0', '1'}
	seed("s-00", hello)
	var stream bytes.Buffer
	writeFrame(&stream, "s-00", hello)
	writeFrame(&stream, "s-00", []byte{72, 0})
	f.Add(stream.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		from, msg, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the interesting part is not crashing
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, from, msg); err != nil {
			t.Fatalf("re-encoding an accepted frame failed: %v", err)
		}
		from2, msg2, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("re-reading a re-encoded frame failed: %v", err)
		}
		if from2 != from || !bytes.Equal(msg2, msg) {
			t.Fatalf("round trip changed the frame: (%q, %x) != (%q, %x)", from2, msg2, from, msg)
		}
	})
}
