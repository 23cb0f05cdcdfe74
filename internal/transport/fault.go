package transport

import (
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
)

// Fault loses frames on their way out of a store over real TCP. Wrapped
// around the store's dialer (StoreConfig.Dial) it drops each outbound frame
// with a seeded probability, and every frame toward a peer a sever function
// names. It acts on whole frames — the wrapper reassembles the
// length-prefixed framing — so injected loss looks like a lost message,
// never a torn byte stream that would desynchronize the receiver's framing
// and kill the connection. Duplication, delay and reordering have no place
// here: the tests get them, and per-link schedules, from a deterministic
// scheduler that drives the store's cores without sockets.
//
// A connection's first frame is never dropped, under either knob: it is
// the hello that opens the connection, and TCP either completes a
// connection or fails it — there is no connection whose opening message
// went missing, so a receiver closes one whose first frame is anything
// else. Every later frame, a refreshed hello included, is fair game.
//
// Both knobs are safe to change while connections are live: each frame
// consults the current policy, so a partition heals on existing connections
// without redialing.
type Fault struct {
	mu       sync.Mutex
	rng      *rand.Rand
	dropRate float64
	sever    func(peer string) bool
}

// NewFault returns an injector with no fault enabled, whose drops are drawn
// from rand.NewSource(seed): one Float64 per frame after a connection's
// first while the drop rate is above 0 and the peer is not severed, none
// otherwise. Through one connection, frame i > 0 is dropped iff its draw
// is below the rate; with the per-peer write pipelines writing at once the
// draws interleave in scheduler order, so the seed fixes the statistics,
// not which frame is hit.
func NewFault(seed int64) *Fault {
	return &Fault{rng: rand.New(rand.NewSource(seed))}
}

// SetDropRate makes each outbound frame independently vanish with
// probability r.
func (f *Fault) SetDropRate(r float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropRate = r
}

// SetSever installs a per-peer blackhole: while fn returns true for a
// peer, every frame to it but a connection's first is dropped. Partition tests flip this to cut a
// store off and later heal it.
func (f *Fault) SetSever(fn func(peer string) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sever = fn
}

// decide reports whether one outbound frame to peer is dropped.
func (f *Fault) decide(peer string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sever != nil && f.sever(peer) {
		return true
	}
	return f.dropRate > 0 && f.rng.Float64() < f.dropRate
}

// Dialer wraps base (nil for the default TCP dialer) so every connection
// it establishes passes its outbound frames through this injector.
func (f *Fault) Dialer(base DialFunc) DialFunc {
	if base == nil {
		base = defaultDial
	}
	return func(id, addr string) (net.Conn, error) {
		c, err := base(id, addr)
		if err != nil {
			return nil, err
		}
		return &faultConn{Conn: c, fault: f, peer: id}, nil
	}
}

// faultConn decides each outbound frame's fate on the write side. Reads
// pass through untouched: each direction of a link is its own connection,
// dialed by its sender.
type faultConn struct {
	net.Conn
	fault  *Fault
	peer   string
	mu     sync.Mutex // guards buf and opened, and serializes underlying writes
	buf    []byte
	opened bool // the connection's first frame has passed
}

// Write buffers until whole frames (4-byte length prefix + body) are
// assembled, then writes those that survive. The caller always sees a full
// successful write: a dropped frame is loss on the wire, not a send error,
// exactly like the simulator's lossy channels.
func (c *faultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = append(c.buf, p...)
	off := 0
	for len(c.buf)-off >= 4 {
		n := 4 + int(binary.BigEndian.Uint32(c.buf[off:]))
		if len(c.buf)-off < n {
			break
		}
		frame := c.buf[off : off+n]
		off += n
		if c.opened && c.fault.decide(c.peer) {
			continue
		}
		c.opened = true
		if _, err := c.Conn.Write(frame); err != nil {
			c.buf = c.buf[:0]
			return len(p), err
		}
	}
	c.buf = c.buf[:copy(c.buf, c.buf[off:])] // the part of a frame still to come
	return len(p), nil
}
