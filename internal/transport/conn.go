package transport

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// DialFunc establishes the outbound connection to one peer: id is the
// peer's identifier, addr its listen address. The fault injector (Fault)
// and the tests wrap the default TCP dialer through StoreConfig.Dial to
// drop or rewrite frames at the connection layer.
type DialFunc func(id, addr string) (net.Conn, error)

// defaultDial is the production dialer: plain TCP with a bounded timeout.
func defaultDial(_, addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 2*time.Second)
}

// Write-pipeline tuning. reconnectBase/reconnectMax bound the capped
// exponential backoff between connection attempts to a down peer;
// drainTimeout bounds how long close waits for the per-peer queues to
// flush before force-closing connections and abandoning what remains.
const (
	defaultPeerQueueLen   = 128
	defaultPeerQueueBytes = 8 << 20
	reconnectBase         = 10 * time.Millisecond
	reconnectMax          = 2 * time.Second
	drainTimeout          = time.Second
)

// queueConfig bounds one peer's outbound queue. Frames vary ~100x in
// size (a digest heartbeat vs a full repair batch), so the queue is
// budgeted in bytes as well as frames: eviction fires when either bound
// is crossed.
type queueConfig struct {
	frames int // 0 = defaultPeerQueueLen
	bytes  int // 0 = defaultPeerQueueBytes
}

func (q queueConfig) withDefaults() queueConfig {
	if q.frames <= 0 {
		q.frames = defaultPeerQueueLen
	}
	if q.bytes <= 0 {
		q.bytes = defaultPeerQueueBytes
	}
	return q
}

// Per-peer pipeline connection states, reported by PeerStats.State.
const (
	// PeerConnecting: no usable connection yet — either nothing has been
	// sent to this peer or a dial is in progress.
	PeerConnecting = "connecting"
	// PeerUp: the last dial succeeded and no write has failed since.
	PeerUp = "up"
	// PeerBackoff: the last dial or write failed; the writer is waiting
	// out the capped exponential backoff before the next attempt.
	PeerBackoff = "backoff"
)

// PeerStats counts one outbound peer pipeline's work. Counters are
// cumulative since the store started; State, Queued and QueuedBytes are
// a snapshot.
type PeerStats struct {
	// Enqueued counts frames accepted into this peer's bounded queue;
	// EnqueuedBytes their encoded payload bytes.
	Enqueued      int
	EnqueuedBytes int
	// Dropped counts frames lost on the way to this peer: evicted by the
	// drop-oldest overflow policy while the queue exceeded its frame or
	// byte budget, or abandoned after a failed connection attempt or
	// write error. DroppedBytes is the same ledger in bytes. Acked
	// engines retransmit the lost deltas and digest anti-entropy repairs
	// the rest; under the plain delta engine with digests disabled these
	// frames are gone for good.
	Dropped      int
	DroppedBytes int
	// Coalesced is never populated.
	//
	// Deprecated: the pipeline writes every frame as it was queued and
	// merges none; the field stays declared only because the frozen bench/
	// module compiles against it.
	Coalesced int
	// Reconnects counts successful connection establishments after a
	// failure (the first connect is not a reconnect).
	Reconnects int
	// State is the pipeline's connection state: PeerUp, PeerConnecting
	// or PeerBackoff. Cleared by StoreStats.Add — states from different
	// stores are not additive.
	State string
	// Queued is the queue depth at snapshot time, in frames and bytes.
	Queued      int
	QueuedBytes int
	// The link's view — how far behind the peer is, for a store whose
	// engine wants acknowledgements (all zero otherwise). InFlight is the
	// number of numbered frames sent to the peer that it still waits for:
	// not acknowledged, and younger than the few ticks after which the
	// link lets the peer's mark pass them (a late acknowledgement still
	// counts); LastSent the sequence number of the newest of them;
	// LastAcked the peer's cumulative mark, below which it has
	// acknowledged everything; LastReceived the highest sequence number
	// seen on the peer's own frames. StoreStats.Add sums InFlight and
	// clears the three sequence numbers, which are not additive.
	InFlight     int
	LastSent     uint64
	LastAcked    uint64
	LastReceived uint64
	// Reaches is what the peer last announced: the neighbors of this store
	// that the peer's own pipelines were connected to. Cleared by
	// StoreStats.Add.
	Reaches []string
}

// peerConn is one peer's outbound pipeline: a bounded frame queue feeding
// a dedicated writer goroutine that owns the connection, dials it lazily,
// and re-establishes it with capped exponential backoff after failures.
// transmit is a non-blocking enqueue, so a stalled or dead peer can never
// delay frames to healthy peers; when the queue exceeds its frame or byte
// budget the oldest frame is evicted (newest data wins — it subsumes what
// an eventual digest repair would reship anyway).
type peerConn struct {
	id   string
	addr string
	p    *peerNet

	mu         sync.Mutex
	cond       *sync.Cond // signals queue growth, drain start, a hello due and a dial wanted
	queue      [][]byte
	qbytes     int // sum of queued frame lengths
	qcfg       queueConfig
	closed     bool // no further enqueues; writer exits once drained
	conn       net.Conn
	state      string
	backoff    time.Duration
	hadFailure bool // a dial/write failed since the last success
	stats      PeerStats
	// helloDue is set when the next frame on the connection must be a
	// hello: by the dial that established it, and by announce.
	helloDue bool
	// dialWanted has the writer establish the connection with nothing
	// queued (connect); it stays set, and the writer keeps trying at the
	// backoff's pace, until a dial succeeds.
	dialWanted bool
	// fw is the writer goroutine's own, unguarded: every frame and hello
	// leaves through it.
	fw frameWriter
}

// enqueue appends one frame, evicting oldest queued frames while either
// the frame-count cap or the byte budget is exceeded — except the frame
// just enqueued, so one frame above the byte budget still ships instead
// of wedging the pipeline. It never blocks: overflow is data loss for the
// engines or digest anti-entropy to repair, not backpressure onto the
// sync tick.
func (pc *peerConn) enqueue(data []byte) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed {
		return
	}
	pc.stats.Enqueued++
	pc.stats.EnqueuedBytes += len(data)
	pc.queue = append(pc.queue, data)
	pc.qbytes += len(data)
	for len(pc.queue) > 1 && (len(pc.queue) > pc.qcfg.frames || pc.qbytes > pc.qcfg.bytes) {
		old := pc.queue[0]
		pc.queue[0] = nil
		pc.queue = pc.queue[1:]
		pc.qbytes -= len(old)
		pc.stats.Dropped++
		pc.stats.DroppedBytes += len(old)
	}
	pc.cond.Signal()
}

// run is the writer goroutine: it writes the queued frames one by one, as
// they were handed to transmit, until the pipeline is closed and empty, or
// hard-stopped.
func (pc *peerConn) run() {
	defer pc.p.writers.Done()
	for {
		frame, ok := pc.next()
		if !ok {
			pc.mu.Lock()
			if pc.conn != nil {
				pc.conn.Close()
				pc.conn = nil
			}
			pc.mu.Unlock()
			return
		}
		pc.write(frame) // nil: the connection, and the hello due on it
	}
}

// next blocks until a frame is available or the pipeline is done. It
// returns no frame, and true, when all there is to do is write a hello on
// a connection that is up, or dial one that is wanted.
func (pc *peerConn) next() ([]byte, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for len(pc.queue) == 0 && !pc.closed && !(pc.helloDue && pc.conn != nil) && !(pc.dialWanted && pc.conn == nil) {
		pc.cond.Wait()
	}
	if pc.hardStopped() || len(pc.queue) == 0 && pc.closed {
		return nil, false
	}
	if len(pc.queue) == 0 {
		return nil, true
	}
	f := pc.queue[0]
	pc.queue[0] = nil
	pc.queue = pc.queue[1:]
	pc.qbytes -= len(f)
	return f, true
}

func (pc *peerConn) hardStopped() bool {
	select {
	case <-pc.p.hardStop:
		return true
	default:
		return false
	}
}

// write ships one frame — after a hello, if one is due; a nil frame is the
// hello alone — establishing the connection if needed. A failed dial or
// write drops the frame (counted per peer, same as overflow) and backs off
// before the next attempt, so a down peer costs one queued frame per
// attempt instead of wedging the writer on the oldest frame while
// drop-oldest evicts everything newer behind it.
func (pc *peerConn) write(frame []byte) {
	conn := pc.ensureConn()
	if conn == nil {
		pc.dropFrame(frame)
		return
	}
	err := pc.writeHello(conn)
	if err == nil && frame != nil {
		err = pc.fw.write(conn, "", frame) // the hello named the sender
	}
	if err != nil {
		pc.disconnect(conn)
		pc.dropFrame(frame)
		pc.sleepBackoff()
		return
	}
	pc.markHealthy()
}

// writeHello writes the announcement if one is due: the first frame of a
// connection, and the next one after the set of connected pipelines has
// changed or a refresh came round. It goes straight to the socket — the
// queue's eviction never sees it — naming the pipelines that are up now,
// and it is the one frame that names its sender.
func (pc *peerConn) writeHello(conn net.Conn) error {
	pc.mu.Lock()
	due := pc.helloDue && pc.p.hello != nil
	pc.helloDue = false
	pc.mu.Unlock()
	if !due {
		return nil
	}
	return pc.fw.write(conn, pc.p.id, pc.p.hello(pc.p.up()))
}

// markHealthy resets the backoff after a successful write — not after a
// successful dial, or a peer whose listener accepts connections that then
// fail every write would redial at the base interval forever and count a
// "reconnect" per attempt.
func (pc *peerConn) markHealthy() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.backoff = 0
	if pc.hadFailure {
		pc.stats.Reconnects++
		pc.hadFailure = false
	}
}

// ensureConn returns the live connection, dialing if there is none. On
// dial failure it sleeps the backoff and returns nil.
func (pc *peerConn) ensureConn() net.Conn {
	pc.mu.Lock()
	if pc.conn != nil {
		c := pc.conn
		pc.mu.Unlock()
		return c
	}
	pc.state = PeerConnecting
	pc.mu.Unlock()
	c, err := pc.p.dial(pc.id, pc.addr)
	if err != nil {
		pc.sleepBackoff()
		return nil
	}
	pc.mu.Lock()
	if pc.hardStopped() {
		pc.mu.Unlock()
		c.Close()
		return nil
	}
	pc.conn = c
	pc.state = PeerUp
	pc.helloDue = true // a connection introduces itself
	pc.dialWanted = false
	pc.mu.Unlock()
	pc.p.announce() // the other neighbors hear that this one is reached
	return c
}

// disconnect tears the connection down after a write error.
func (pc *peerConn) disconnect(conn net.Conn) {
	conn.Close()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.conn == conn {
		pc.conn = nil
	}
}

// dropFrame counts a frame lost to a failed dial or write; the hello
// alone (nil) is not a queued frame and costs nothing.
func (pc *peerConn) dropFrame(frame []byte) {
	if frame == nil {
		return
	}
	pc.mu.Lock()
	pc.stats.Dropped++
	pc.stats.DroppedBytes += len(frame)
	pc.mu.Unlock()
}

// sleepBackoff waits out the capped exponential backoff after a failure,
// returning early on hard stop. The queue keeps accepting (and, when
// full, drop-oldest-evicting) frames throughout.
func (pc *peerConn) sleepBackoff() {
	pc.mu.Lock()
	if pc.backoff == 0 {
		pc.backoff = reconnectBase
	} else if pc.backoff < reconnectMax {
		pc.backoff *= 2
		if pc.backoff > reconnectMax {
			pc.backoff = reconnectMax
		}
	}
	d := pc.backoff
	wasUp := pc.state == PeerUp
	pc.state = PeerBackoff
	pc.hadFailure = true
	pc.mu.Unlock()
	if wasUp {
		pc.p.announce()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-pc.p.hardStop:
	}
}

// snapshot returns the pipeline's counters plus current state and depth.
func (pc *peerConn) snapshot() PeerStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	s := pc.stats
	s.State = pc.state
	s.Queued = len(pc.queue)
	s.QueuedBytes = pc.qbytes
	return s
}

// peerNet owns a Store's connection plumbing: the listener, one outbound
// write pipeline per peer, accepted inbound connections, and the
// accept/read loops that hand each frame to the store's deliver callback.
type peerNet struct {
	id       string
	dial     DialFunc
	ln       net.Listener
	peers    map[string]*peerConn // fixed at construction, read-only after
	mu       sync.Mutex           // guards accepted and inbound
	accepted map[net.Conn]struct{}
	// inbound counts the live accepted connections per sender, as their
	// first frame named it: a peer that redials may briefly hold two.
	inbound map[string]int
	// The owner's hooks, fixed by start. deliver runs for every inbound
	// frame; hello encodes the announcement a connection opens with,
	// given the peers whose pipelines are up; gone runs when the last
	// inbound connection from a peer has ended.
	deliver  func(from string, inc *uint32, frame []byte) error
	hello    func(reaches []string) []byte
	gone     func(from string)
	stopping chan struct{}
	hardStop chan struct{}
	stopOnce sync.Once
	hardOnce sync.Once
	wg       sync.WaitGroup // accept + read loops
	writers  sync.WaitGroup // peerConn writer goroutines
}

func newPeerNet(id string, peers map[string]string, ln net.Listener, dial DialFunc, qcfg queueConfig) *peerNet {
	if dial == nil {
		dial = defaultDial
	}
	qcfg = qcfg.withDefaults()
	p := &peerNet{
		id:       id,
		dial:     dial,
		ln:       ln,
		peers:    make(map[string]*peerConn, len(peers)),
		accepted: make(map[net.Conn]struct{}),
		inbound:  make(map[string]int),
		stopping: make(chan struct{}),
		hardStop: make(chan struct{}),
	}
	for pid, addr := range peers {
		pc := &peerConn{id: pid, addr: addr, p: p, qcfg: qcfg, state: PeerConnecting}
		pc.cond = sync.NewCond(&pc.mu)
		p.peers[pid] = pc
	}
	return p
}

// start launches the accept loop and one writer goroutine per peer;
// deliver runs for every inbound frame, on the connection's read
// goroutine, with the sender the connection's first frame named and the
// raw encoded message bytes. The bytes alias the connection's reused read
// buffer and are valid only for the duration of the call; a non-nil error
// drops the connection (a corrupt peer, or one whose hello this store
// refuses). inc is the connection's own word, 0 when it opens: the owner
// records there the incarnation the connection's hello names, and reads
// it back on every later frame. hello and gone may be nil: no
// announcement is written, no ending reported.
func (p *peerNet) start(deliver func(from string, inc *uint32, frame []byte) error, hello func(reaches []string) []byte, gone func(from string)) {
	p.deliver, p.hello, p.gone = deliver, hello, gone
	p.wg.Add(1)
	go p.acceptLoop()
	for _, pc := range p.peers {
		p.writers.Add(1)
		go pc.run()
	}
}

func (p *peerNet) addr() string { return p.ln.Addr().String() }

// errClosed reports a transmit attempted after close.
var errClosed = errors.New("transport: peer network closed")

// transmit enqueues one frame onto the peer's write pipeline. It never
// blocks on the network: the dedicated writer goroutine dials and writes,
// so a stalled peer delays only its own queue. When that queue is full
// the oldest queued frame is evicted and counted (PeerStats.Dropped);
// callers decide whether the protocol resends (acked engines) or digest
// anti-entropy repairs the loss.
func (p *peerNet) transmit(to string, data []byte) error {
	select {
	case <-p.stopping:
		// A sync tick racing close() must not enqueue frames the
		// draining writers will never pick up.
		return errClosed
	default:
	}
	pc, ok := p.peers[to]
	if !ok {
		return fmt.Errorf("transport: unknown peer %s", to)
	}
	pc.enqueue(data)
	return nil
}

// up lists the peers whose pipelines are connected, sorted: what a hello
// announces.
func (p *peerNet) up() []string {
	var ids []string
	for id, pc := range p.peers {
		pc.mu.Lock()
		if pc.state == PeerUp {
			ids = append(ids, id)
		}
		pc.mu.Unlock()
	}
	sort.Strings(ids)
	return ids
}

// connect reports whether the pipeline to id has a connection and, if
// not, has its writer dial now instead of when the next frame is queued:
// for a caller with frames to send once the peer is there, and none worth
// queueing toward one that may never be.
func (p *peerNet) connect(id string) bool {
	pc := p.peers[id]
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.conn == nil && !pc.dialWanted {
		pc.dialWanted = true
		pc.cond.Signal()
	}
	return pc.conn != nil
}

// announce makes a hello the next frame on every connection that is up:
// the set it names has changed, or a refresh is due. The writers are woken
// to send it even with nothing queued.
func (p *peerNet) announce() {
	for _, pc := range p.peers {
		pc.mu.Lock()
		pc.helloDue = true
		pc.cond.Signal()
		pc.mu.Unlock()
	}
}

// peerStats snapshots every peer pipeline's counters and state.
func (p *peerNet) peerStats() map[string]PeerStats {
	out := make(map[string]PeerStats, len(p.peers))
	for id, pc := range p.peers {
		out[id] = pc.snapshot()
	}
	return out
}

func (p *peerNet) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			select {
			case <-p.stopping:
				return
			default:
				continue
			}
		}
		// close closes stopping, then under mu every accepted connection.
		// One entered after that pass would park its readLoop for good,
		// and close's wg.Wait with it, so once stopping is closed a
		// connection is closed here instead.
		p.mu.Lock()
		select {
		case <-p.stopping:
			p.mu.Unlock()
			conn.Close()
			return
		default:
		}
		p.accepted[conn] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.readLoop(conn)
	}
}

func (p *peerNet) readLoop(conn net.Conn) {
	defer p.wg.Done()
	// The connection is its first frame's sender's, for as long as it
	// lives: a first frame that names nobody, or a later frame that names
	// anyone else, closes it unread, since its acknowledgement, reach and
	// drill would be booked to a neighbor whose connection this is not.
	// Frames that name nobody are the sender's.
	var peer string
	var inc uint32 // the owner's, through deliver
	named := false
	defer func() {
		conn.Close()
		p.mu.Lock()
		delete(p.accepted, conn)
		last := false
		if named {
			p.inbound[peer]--
			if last = p.inbound[peer] == 0; last {
				delete(p.inbound, peer)
			}
		}
		p.mu.Unlock()
		if last && p.gone != nil {
			p.gone(peer)
		}
	}()
	// One read buffer for the connection's lifetime: deliver is
	// synchronous and the decoders copy whatever outlives the call, so
	// the next frame may safely overwrite the previous one's bytes.
	var buf []byte
	for {
		from, data, err := readFrameInto(conn, &buf)
		if err != nil {
			return
		}
		switch {
		case !named && len(from) == 0:
			return
		case !named:
			peer, named = string(from), true
			p.mu.Lock()
			p.inbound[peer]++
			p.mu.Unlock()
		case len(from) != 0 && string(from) != peer:
			return
		}
		if err := p.deliver(peer, &inc, data); err != nil {
			return // corrupt or refused peer; drop the connection
		}
	}
}

// close stops the accept loop, drains the write pipelines, and closes
// every connection. The drain is graceful but bounded: writers get
// drainTimeout to flush queued frames to reachable peers, then the hard
// stop unblocks any writer stuck dialing, backing off, or writing to a
// stalled peer, and the rest of the queues are abandoned. Accepted
// connections park their readLoops in blocking reads; closing them here
// is what lets wg.Wait return. Idempotent.
func (p *peerNet) close() error {
	p.stopOnce.Do(func() { close(p.stopping) })
	var err error
	if p.ln != nil {
		err = p.ln.Close()
	}
	for _, pc := range p.peers {
		pc.mu.Lock()
		pc.closed = true
		pc.cond.Broadcast()
		pc.mu.Unlock()
	}
	drained := make(chan struct{})
	go func() { p.writers.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
	}
	p.hardOnce.Do(func() { close(p.hardStop) })
	for _, pc := range p.peers {
		pc.mu.Lock()
		if pc.conn != nil {
			pc.conn.Close() // unblocks a writer stuck mid-write
		}
		pc.cond.Broadcast()
		pc.mu.Unlock()
	}
	p.mu.Lock()
	for c := range p.accepted {
		c.Close()
	}
	p.mu.Unlock()
	// Second bounded wait, not writers.Wait(): a writer can still be
	// parked inside a blocking Dial hook, which no channel of ours can
	// interrupt. Close must not inherit the dialer's timeout — such a
	// writer observes the hard stop as soon as the dial returns, closes
	// whatever it dialed, and exits without touching shared state.
	select {
	case <-drained:
	case <-time.After(drainTimeout):
	}
	p.wg.Wait()
	return err
}
