// Package transport runs a sharded multi-object store over real TCP
// connections: a Store owns one per-object protocol engine per shard,
// listens for frames from its neighbors, ships what a write or a
// delivery left to send on a write-triggered flush, and drives the
// engines' periodic synchronization and digest anti-entropy from one
// timer, and snapshots from another. Frames are length-prefixed: a
// 4-byte big-endian length, the sender id (length-prefixed), and one
// codec-encoded sharded message.
//
// The simulator (package netsim) remains the measurement substrate for
// the paper's figures; the store is what crdtsync.Open runs and what
// bench/ measures.
package transport

import (
	"encoding/binary"
	"errors"
	"io"
)

// maxFrameBytes bounds a single frame (64 MiB) to fail fast on corrupt
// length prefixes.
const maxFrameBytes = 64 << 20

// maxIDBytes is the longest replica id a frame can carry: writeFrame
// spends two bytes on the sender id's length.
const maxIDBytes = 1<<16 - 1

// ErrFrameTooLarge reports a frame exceeding maxFrameBytes.
var ErrFrameTooLarge = errors.New("transport: frame too large")

// writeFrame emits [len][from][msg] with a 4-byte big-endian total length.
func writeFrame(w io.Writer, from string, msg []byte) error {
	body := make([]byte, 0, 2+len(from)+len(msg))
	body = append(body, byte(len(from)>>8), byte(len(from)))
	body = append(body, from...)
	body = append(body, msg...)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrameInto parses one frame into *buf, growing it only when a frame
// exceeds its capacity, so a connection's read loop amortizes one buffer
// across every frame it ever receives. The returned msg aliases *buf and
// is valid only until the next call with the same buffer — the deliver
// path must be done with the bytes (or have copied what it keeps, which
// the codec's decoders always do) before the loop reads the next frame.
func readFrameInto(r io.Reader, buf *[]byte) (from string, msg []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return "", nil, err
	}
	total := binary.BigEndian.Uint32(hdr[:])
	if total > maxFrameBytes {
		return "", nil, ErrFrameTooLarge
	}
	if uint32(cap(*buf)) < total {
		*buf = make([]byte, total)
	}
	body := (*buf)[:total]
	if _, err = io.ReadFull(r, body); err != nil {
		return "", nil, err
	}
	if len(body) < 2 {
		return "", nil, io.ErrUnexpectedEOF
	}
	fromLen := int(body[0])<<8 | int(body[1])
	if len(body) < 2+fromLen {
		return "", nil, io.ErrUnexpectedEOF
	}
	return string(body[2 : 2+fromLen]), body[2+fromLen:], nil
}
