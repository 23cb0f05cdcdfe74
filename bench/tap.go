package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"time"

	"crdtsync"
	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
)

// The tap wraps every connection of a traced cluster (WithDial on the
// writing side, WithListener on the reading side). It never changes a
// byte; it timestamps frame boundaries on both ends of the probe path and
// classifies each written frame's bytes by what they carry. Classification
// runs on the peer's writer goroutine after the socket write returned, so
// it delays the next frame to that peer, never the one being measured.

// wireClasses splits the bytes put on the wire by what they carry.
type wireClasses struct {
	delta, ack, digest, tree, header int64
	dataFrames, items                int64
}

func (w wireClasses) total() int64 { return w.delta + w.ack + w.digest + w.tree + w.header }

// probeHit says a written frame carried probe counter key up to value.
type probeHit struct {
	key   int
	value uint64
}

// writeRec is one frame written on the probe path.
type writeRec struct {
	start, end time.Time
	hits       []probeHit
}

// readRec is one frame read on the probe path: when its last byte arrived
// and when the read loop came back for the next frame. The store's read
// loop is synchronous, so the gap is unpack + apply + reply + notify.
type readRec struct {
	complete, next time.Time
}

// Caps on the frames kept verbatim for the replay attribution.
const (
	maxSavedFrames = 2000
	maxSavedBytes  = 32 << 20
)

type tap struct {
	ids []string // replica ids, by index

	mu      sync.Mutex
	classes wireClasses
	// saved holds copies of the first data frames (codec message bytes,
	// transport header stripped) for the replay attribution.
	saved      [][]byte
	savedBytes int
	keep       bool // inside the timed window
	// writes and reads log the first connection from writeReplica to
	// watchReplica, frame by frame; TCP keeps them in the same order.
	writes    []writeRec
	reads     []readRec
	hasWriter bool
	hasReader bool
}

func newTap(ids []string) *tap { return &tap{ids: ids} }

// beginWindow zeroes the byte classes (set-up traffic is not the
// window's) and starts keeping frames for the replay.
func (t *tap) beginWindow() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.classes, t.keep = wireClasses{}, true
}

// endWindow returns the window's byte classes and the frames kept.
func (t *tap) endWindow() (wireClasses, [][]byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.keep = false
	return t.classes, t.saved
}

var probeKeyPrefix = []byte(crdtsync.CounterPrefix + "p/")

// dial returns the DialFunc for replica local.
func (t *tap) dial(local string) crdtsync.DialFunc {
	return func(id, addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		tc := &tapConn{Conn: c, t: t, local: local, peer: id}
		if local == t.ids[writeReplica] && id == t.ids[watchReplica] {
			t.mu.Lock()
			tc.onPath, t.hasWriter = !t.hasWriter, true
			t.mu.Unlock()
		}
		return tc, nil
	}
}

// listener wraps replica local's listener.
func (t *tap) listener(local string, ln net.Listener) net.Listener {
	return &tapListener{Listener: ln, t: t, local: local}
}

type tapListener struct {
	net.Listener
	t     *tap
	local string
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, t: l.t, local: l.local}, nil
}

// tapConn observes one direction of one link: the store writes only on
// connections it dialed and reads only on connections it accepted.
type tapConn struct {
	net.Conn
	t     *tap
	local string
	peer  string // known at dial; learned from the first frame when accepted
	// onPath marks the first connection from writeReplica to watchReplica
	// (on either end): the one whose frames are logged for the spans.
	onPath bool

	// Write side: reassembles frames from the bytes written.
	wbuf       []byte
	frameStart time.Time
	view       codec.FrameView

	// Read side: follows the length-prefixed framing by byte count alone.
	hdr      [4]byte
	hdrN     int
	bodyLeft int
	idBuf    []byte // first bytes of the first frame body, to learn peer
	pending  bool   // a frame completed; the next Read call ends its deliver
	lastDone time.Time
}

func (c *tapConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	end := time.Now()
	if err != nil {
		return n, err
	}
	if len(c.wbuf) == 0 {
		c.frameStart = start
	}
	// The transport writes a 4-byte length and then the body; the body
	// alone is the common case and is classified in place, without a copy.
	if len(c.wbuf) == 4 {
		if total := int(binary.BigEndian.Uint32(c.wbuf)); total == len(p) {
			c.wbuf = c.wbuf[:0]
			c.frame(p, end)
			return n, nil
		}
	}
	c.wbuf = append(c.wbuf, p...)
	for len(c.wbuf) >= 4 {
		total := int(binary.BigEndian.Uint32(c.wbuf))
		if len(c.wbuf) < 4+total {
			break
		}
		c.frame(c.wbuf[4:4+total], end)
		c.wbuf = c.wbuf[:copy(c.wbuf, c.wbuf[4+total:])]
		c.frameStart = start
	}
	return n, nil
}

// frame accounts one written frame body (sender id + codec message).
func (c *tapConn) frame(body []byte, end time.Time) {
	if len(body) < 2 {
		return
	}
	idLen := int(body[0])<<8 | int(body[1])
	if len(body) < 2+idLen {
		return
	}
	msg := body[2+idLen:]
	var w wireClasses
	transportHdr := int64(4 + 2 + idLen)
	var hits []probeHit
	err := codec.UnpackFrame(msg, numShards, &c.view)
	switch {
	case err == nil:
		w.dataFrames = 1
		w.items = int64(c.view.NumItems())
		hasProbe := c.onPath && bytes.Contains(msg, probeKeyPrefix)
		for _, g := range c.view.Groups() {
			for i := range g.Items {
				iv := &g.Items[i]
				n := int64(len(iv.Key) + len(iv.Payload))
				if codec.IsAckTag(iv.Tag()) {
					w.ack += n
					continue
				}
				w.delta += n
				if hasProbe && bytes.HasPrefix(iv.Key, probeKeyPrefix) {
					if h, ok := probeHitOf(iv, c.local); ok {
						hits = append(hits, h)
					}
				}
			}
		}
		w.digest = int64(8 * len(c.view.Digests))
		w.header = transportHdr + int64(len(msg)) - w.delta - w.ack - w.digest
	case errors.Is(err, codec.ErrNotSharded):
		m, _, derr := codec.DecodeMsg(msg)
		switch {
		case derr != nil:
			w.header = transportHdr + int64(len(msg))
		default:
			w.header = transportHdr
			if _, ok := m.(*protocol.TreeMsg); ok {
				w.tree = int64(len(msg))
			} else {
				w.digest = int64(len(msg))
			}
		}
	default:
		w.header = transportHdr + int64(len(msg))
	}
	c.view.Reset()

	t := c.t
	t.mu.Lock()
	t.classes.delta += w.delta
	t.classes.ack += w.ack
	t.classes.digest += w.digest
	t.classes.tree += w.tree
	t.classes.header += w.header
	t.classes.dataFrames += w.dataFrames
	t.classes.items += w.items
	if t.keep && w.dataFrames == 1 && len(t.saved) < maxSavedFrames && t.savedBytes+len(msg) <= maxSavedBytes {
		t.saved = append(t.saved, append([]byte(nil), msg...))
		t.savedBytes += len(msg)
	}
	if c.onPath {
		t.writes = append(t.writes, writeRec{start: c.frameStart, end: end, hits: hits})
	}
	t.mu.Unlock()
}

// probeHitOf decodes one probe counter item: the value the writing
// replica's entry has reached in this δ-group.
func probeHitOf(iv *codec.ItemView, writer string) (probeHit, bool) {
	m, err := iv.Msg()
	if err != nil {
		return probeHit{}, false
	}
	var g *crdt.GCounter
	switch d := m.(type) {
	case *protocol.AckedDeltaMsg:
		g, _ = d.Delta.(*crdt.GCounter)
	case *protocol.DeltaMsg:
		g, _ = d.Delta.(*crdt.GCounter)
	}
	if g == nil {
		return probeHit{}, false
	}
	idx, ok := probeIndex(iv.Key)
	if !ok {
		return probeHit{}, false
	}
	return probeHit{key: idx, value: g.Entry(writer)}, true
}

func (c *tapConn) Read(p []byte) (int, error) {
	if c.pending {
		// The read loop is back for the next frame: the previous one has
		// been unpacked, applied, answered and its watchers notified.
		c.pending = false
		if c.onPath {
			c.t.mu.Lock()
			c.t.reads = append(c.t.reads, readRec{complete: c.lastDone, next: time.Now()})
			c.t.mu.Unlock()
		}
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.follow(p[:n])
	}
	return n, err
}

// follow advances the framing state machine over bytes just read.
func (c *tapConn) follow(p []byte) {
	for len(p) > 0 {
		if c.bodyLeft == 0 {
			k := copy(c.hdr[c.hdrN:], p)
			c.hdrN += k
			p = p[k:]
			if c.hdrN < 4 {
				return
			}
			c.hdrN = 0
			c.bodyLeft = int(binary.BigEndian.Uint32(c.hdr[:]))
			if c.bodyLeft == 0 {
				c.done()
			}
			continue
		}
		k := len(p)
		if k > c.bodyLeft {
			k = c.bodyLeft
		}
		if c.peer == "" {
			c.learnPeer(p[:k])
		}
		c.bodyLeft -= k
		p = p[k:]
		if c.bodyLeft == 0 {
			c.done()
		}
	}
}

// learnPeer reads the sender id off the head of the first frame body.
func (c *tapConn) learnPeer(b []byte) {
	c.idBuf = append(c.idBuf, b...)
	if len(c.idBuf) < 2 {
		return
	}
	idLen := int(c.idBuf[0])<<8 | int(c.idBuf[1])
	if len(c.idBuf) < 2+idLen {
		return
	}
	c.peer = string(c.idBuf[2 : 2+idLen])
	c.idBuf = nil
	t := c.t
	if c.local == t.ids[watchReplica] && c.peer == t.ids[writeReplica] {
		t.mu.Lock()
		c.onPath, t.hasReader = !t.hasReader, true
		t.mu.Unlock()
	}
}

func (c *tapConn) done() {
	c.pending = true
	c.lastDone = time.Now()
}
