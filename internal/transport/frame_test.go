package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
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
