// Package transport runs a sharded multi-object store over real TCP
// connections: a Store owns one per-object protocol engine per shard,
// listens for frames from its neighbors, ships what a write or a
// delivery left to send on a write-triggered flush, and drives the
// engines' periodic synchronization and digest anti-entropy from one
// timer, and snapshots from another.
//
// Frames are length-prefixed: a 4-byte big-endian length, a 2-byte
// sender id length, the sender id, and one codec-encoded message. Only a
// hello — the message every connection opens with — names its sender;
// every other frame's id is empty, since a connection speaks for the
// sender its first frame named, and of the incarnation its hello named
// (the sender's life, which numbered frames do not carry). A
// connection whose first frame names nobody or is no hello, or one that
// later names another sender or incarnation, is closed before anything
// on it is applied.
//
// NewSim (sim.go) runs one core per node of a topology.Graph on a seeded
// scheduler, with simulated links and clocks, for crdtsim -store and every
// fault scenario of the protocol: loss, partitions, drills, link
// acknowledgements, digest traffic and lost hellos. Real sockets are
// tested for what the shell owns. The simulator of bare engines (package netsim)
// remains the measurement substrate for the paper's figures; the store is
// what crdtsync.Open runs and what bench/ measures.
package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
)

// maxFrameBytes bounds a single frame (64 MiB) to fail fast on corrupt
// length prefixes.
const maxFrameBytes = 64 << 20

// maxIDBytes is the longest replica id a frame can carry: frameWriter
// spends two bytes on the sender id's length.
const maxIDBytes = 1<<16 - 1

// frameHeaderBytes is what a frame costs on the socket beyond its message
// and sender id: the length and the id's length.
const frameHeaderBytes = 4 + 2

// ErrFrameTooLarge reports a frame exceeding maxFrameBytes.
var ErrFrameTooLarge = errors.New("transport: frame too large")

// frameWriter writes frames from buffers that live as long as their one
// owner, a peer's writer goroutine: the header and the buffer list a
// writev takes escape to the heap, and cost three allocations a frame when
// they were each call's own.
type frameWriter struct {
	hdr  [frameHeaderBytes]byte
	list [2][]byte
	bufs net.Buffers
}

// write emits [len][from][msg] with a 4-byte big-endian total length, in
// one write: on TCP one writev of the header and the message, neither
// copied. from is empty for every frame but a hello.
func (fw *frameWriter) write(w io.Writer, from string, msg []byte) error {
	binary.BigEndian.PutUint32(fw.hdr[:], uint32(2+len(from)+len(msg)))
	binary.BigEndian.PutUint16(fw.hdr[4:], uint16(len(from)))
	fw.list = [2][]byte{append(fw.hdr[:], from...), msg}
	fw.bufs = fw.list[:]
	_, err := fw.bufs.WriteTo(w)
	fw.list = [2][]byte{} // the message is the caller's
	return err
}

// readFrameInto parses one frame into *buf, growing it only when a frame
// exceeds its capacity, so a connection's read loop amortizes one buffer
// across every frame it ever receives. The returned from and msg alias
// *buf and are valid only until the next call with the same buffer — the
// deliver path must be done with the bytes (or have copied what it keeps,
// which the codec's decoders always do) before the loop reads the next
// frame.
func readFrameInto(r io.Reader, buf *[]byte) (from, msg []byte, err error) {
	// The length goes through the buffer too: an array of the loop's own
	// would escape into the reader and cost an allocation per frame.
	if cap(*buf) < 4 {
		*buf = make([]byte, 4)
	}
	hdr := (*buf)[:4]
	if _, err = io.ReadFull(r, hdr); err != nil {
		return nil, nil, err
	}
	total := binary.BigEndian.Uint32(hdr)
	if total > maxFrameBytes {
		return nil, nil, ErrFrameTooLarge
	}
	if uint32(cap(*buf)) < total {
		*buf = make([]byte, total)
	}
	body := (*buf)[:total]
	if _, err = io.ReadFull(r, body); err != nil {
		return nil, nil, err
	}
	if len(body) < 2 {
		return nil, nil, io.ErrUnexpectedEOF
	}
	fromLen := int(body[0])<<8 | int(body[1])
	if len(body) < 2+fromLen {
		return nil, nil, io.ErrUnexpectedEOF
	}
	return body[2 : 2+fromLen], body[2+fromLen:], nil
}
