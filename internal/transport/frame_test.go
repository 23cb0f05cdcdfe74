package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// readFrame parses one frame into a fresh buffer.
func readFrame(r io.Reader) (from string, msg []byte, err error) {
	var buf []byte
	return readFrameInto(r, &buf)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, "node-7", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	from, msg, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if from != "node-7" || string(msg) != "payload" {
		t.Errorf("got (%q, %q)", from, msg)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrameBytes+1)
	_, _, err := readFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	// Header promises 100 bytes; only 10 arrive.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.Write(make([]byte, 10))
	if _, _, err := readFrame(&buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestReadFrameBadSenderLength(t *testing.T) {
	// Body too short to hold the declared sender id length.
	for _, body := range [][]byte{
		{},            // no sender-length prefix at all
		{0},           // truncated prefix
		{0, 5, 'a'},   // claims 5 sender bytes, has 1
		{255, 255, 0}, // absurd sender length
	} {
		var buf bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		buf.Write(hdr[:])
		buf.Write(body)
		if _, _, err := readFrame(&buf); err == nil {
			t.Errorf("body %v: want error, got nil", body)
		}
	}
}

// TestPeerNetWritesFramesAsHanded: the write pipeline ships each frame
// transmit was handed as one transport frame, in order and byte for byte —
// the backlog that queued up while the reader stalled included. The bytes
// are arbitrary: the pipeline reads no frame format.
func TestPeerNetWritesFramesAsHanded(t *testing.T) {
	const n = 16
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	local, remote := net.Pipe()
	defer remote.Close()
	dial := func(string, string) (net.Conn, error) { return local, nil }
	p := newPeerNet("a", map[string]string{"b": "pipe"}, ln, dial, queueConfig{})
	p.start(func(string, []byte) error { return nil }, nil, nil)
	defer p.close()
	var sent [][]byte
	for i := 0; i < n; i++ {
		f := bytes.Repeat([]byte{byte(i)}, 1+i*7)
		sent = append(sent, f)
		if err := p.transmit("b", f); err != nil {
			t.Fatal(err)
		}
	}
	// The writer blocks on the first frame until the pipe is read; the rest
	// wait in the queue.
	eventually(t, 5*time.Second, "the backlog to queue behind the first frame", func() bool {
		return p.peerStats()["b"].Queued == n-1
	})
	var buf []byte
	for i, want := range sent {
		from, got, err := readFrameInto(remote, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if from != "a" || !bytes.Equal(got, want) {
			t.Fatalf("frame %d from %q: % x, want % x from \"a\"", i, from, got, want)
		}
	}
	if ps := p.peerStats()["b"]; ps.Enqueued != n || ps.Dropped != 0 || ps.Queued != 0 {
		t.Errorf("pipeline: %+v, want %d frames enqueued and none dropped", ps, n)
	}
}

func TestTransmitToUnknownPeerIsDropped(t *testing.T) {
	// Transmitting to a peer id that is not configured must fail cleanly
	// rather than panicking or blocking; the store drops the frame.
	// There is no write pipeline for an unknown peer — pipelines are
	// fixed at construction.
	p := newPeerNet("a", map[string]string{}, nil, nil, queueConfig{})
	if err := p.transmit("stranger", []byte("x")); err == nil {
		t.Error("transmit to unknown peer should fail")
	}
	if got := len(p.peerStats()); got != 0 {
		t.Errorf("peer pipelines = %d, want 0", got)
	}
}
