package transport

import (
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
)

// Fault loses frames on their way out of a store over real TCP: bench's
// repair workload puts its loss on the wire with it. Wrapped around the
// store's dialer (StoreConfig.Dial) it drops each outbound frame with a
// seeded probability. It acts on whole frames — the wrapper reassembles the
// length-prefixed framing — so injected loss looks like a lost message,
// never a torn byte stream that would desynchronize the receiver's framing
// and kill the connection. Every other fault — partitions, one-way
// blackholes, duplication, delay and reordering — and the tests of the
// protocol under loss run on the deterministic scheduler (sim.go), which
// drives the store's cores without sockets.
//
// A connection's first frame is never dropped: it is the hello that opens
// the connection, and TCP either completes a connection or fails it —
// there is no connection whose opening message went missing, so a receiver
// closes one whose first frame is anything else. Every later frame, a
// refreshed hello included, is fair game.
//
// The drop rate is safe to change while connections are live: each frame
// consults the current rate.
type Fault struct {
	mu       sync.Mutex
	rng      *rand.Rand
	dropRate float64
}

// NewFault returns an injector that drops nothing, whose drops are drawn
// from rand.NewSource(seed): one Float64 per frame after a connection's
// first while the drop rate is above 0, none otherwise. Through one
// connection, frame i > 0 is dropped iff its draw is below the rate; with
// the per-peer write pipelines writing at once the draws interleave in
// scheduler order, so the seed fixes the statistics, not which frame is
// hit.
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

// decide reports whether one outbound frame is dropped.
func (f *Fault) decide() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
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
		return &faultConn{Conn: c, fault: f}, nil
	}
}

// faultConn decides each outbound frame's fate on the write side. Reads
// pass through untouched: each direction of a link is its own connection,
// dialed by its sender.
type faultConn struct {
	net.Conn
	fault  *Fault
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
		if c.opened && c.fault.decide() {
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
