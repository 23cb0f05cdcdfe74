package transport

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crdtsync/internal/codec"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// The store's core: the shards, links, reach table, repair slots and
// catch-up marks, and every decision a replica takes with them. It is
// driven by calls, each handed the time where a decision needs it: update,
// deliver, hello and gone, and step (whatever is due). It sends through a
// port, and reads no clock, arms no timer, starts no goroutine and holds no
// socket: the shell (Store, store.go) owns all four.

// port is where the core's frames go: peerNet on a running store, a
// recording fake in tests. transmit never blocks; an error means the frame
// was refused. connect reports whether the pipeline to id is up, and has it
// dial if not; announce makes a hello the next frame on every connection.
type port interface {
	transmit(to string, data []byte) error
	connect(id string) bool
	announce()
}

// never is the deadline of nothing pending.
const never = math.MaxInt64

// core is one replica's state and decisions; its times are nanoseconds on
// the shell's clock.
type core struct {
	cfg       StoreConfig
	inc       uint32 // this life's incarnation, which every hello names
	out       port
	shards    []*shard
	mask      uint32
	neighbors []string // sorted peer ids
	// links holds the acknowledgement state per neighbor, linkList the
	// same in neighbors order; both fixed at construction.
	links    map[string]*link
	linkList []*link
	// reach is what the neighbors have announced they reach, shared with
	// every shard's engines; nil when the engine takes no notice of it,
	// and then no neighbor is ever caught up with either (setReach).
	reach  *protocol.Reach
	repair repairTable
	ticks  atomic.Uint64
	// deliverLocks counts the shard-lock acquisitions of the inbound
	// delivery path — one per touched shard per frame, an invariant an
	// instrumented test pins.
	deliverLocks atomic.Uint64
	// wire holds the counters every flush bumps, as atomics; stats, under
	// statsMu, the rest.
	wire    wireCounters
	statsMu sync.Mutex
	stats   StoreStats
	// hold is how long an owed acknowledgement waits for a data frame to
	// ride before it leaves alone; the shell sets it (ackHoldsPerTick).
	hold atomic.Int64
	// The write-triggered flush. flushWanted is set by the first update or
	// forwarding delivery after a pass and cleared by the next pass (flush
	// or tick); step runs the flush once lastSend — when the previous pass
	// ended — is a window in the past. A pass stores its start and the
	// shell, which can read the clock again, its end, so that slow passes
	// leave fewer, fuller flushes. nextTick is when step runs the next
	// tick; only step uses it.
	flushWanted atomic.Bool
	lastSend    atomic.Int64
	nextTick    int64
	// digestVecs is the free list of digest vectors (see getDigestVec).
	digestVecs chan []uint64
	watchMu    sync.RWMutex
	watchers   []*Watcher
	// watcherCount mirrors len(watchers) for the lock-free hasWatchers
	// check on the delivery and update hot paths; written under watchMu.
	watcherCount atomic.Int32
}

// newCore builds one engine per shard and one link per neighbor from a
// defaulted config; inc is this life's incarnation. out is left to set.
func newCore(cfg StoreConfig, inc uint32) (*core, error) {
	if cfg.Factory == nil || cfg.ObjType == nil {
		return nil, fmt.Errorf("transport: StoreConfig needs Factory and ObjType")
	}
	if len(cfg.ID) > maxIDBytes {
		return nil, fmt.Errorf("transport: replica id is %d bytes, a frame carries at most %d", len(cfg.ID), maxIDBytes)
	}
	neighbors := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		neighbors = append(neighbors, id)
	}
	sort.Strings(neighbors)
	nodes := cfg.Nodes
	if nodes == nil {
		nodes = append([]string{cfg.ID}, neighbors...)
		sort.Strings(nodes)
	}
	// Only an engine that withholds on a neighbor's word is given the
	// table of what the neighbors have said.
	var reach *protocol.Reach
	probe := cfg.Factory(protocol.Config{ID: cfg.ID, Neighbors: neighbors, Nodes: nodes, Datatype: cfg.ObjType("")})
	if rc, ok := probe.(protocol.ReachConsulter); ok && rc.ConsultsReach() {
		reach = protocol.NewReach(neighbors)
	}
	factory := protocol.NewPerObject(cfg.Factory, cfg.ObjType)
	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		eng := factory(protocol.Config{
			ID:        cfg.ID,
			Neighbors: neighbors,
			Nodes:     nodes,
			Reach:     reach,
		})
		keyed, ok1 := eng.(protocol.KeyedEngine)
		od, ok2 := eng.(protocol.ObjectDeliverer)
		fl, ok3 := eng.(protocol.Flusher)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("transport: per-object engine is not a KeyedEngine, ObjectDeliverer and Flusher")
		}
		shards[i] = &shard{engine: keyed, od: od, fl: fl}
	}
	c := &core{
		cfg:        cfg,
		inc:        inc,
		shards:     shards,
		mask:       uint32(cfg.Shards - 1),
		neighbors:  neighbors,
		links:      make(map[string]*link, len(neighbors)),
		linkList:   make([]*link, len(neighbors)),
		reach:      reach,
		repair:     repairTable{timeout: int64(cfg.RepairTimeout), entries: make([]repairEntry, cfg.Shards)},
		nextTick:   int64(cfg.SyncEvery),
		digestVecs: make(chan []uint64, 4),
	}
	for i, id := range neighbors {
		c.linkList[i] = newLink(inc)
		c.links[id] = c.linkList[i]
	}
	return c, nil
}

// shard is one lock domain: a per-object engine (a keyspace partition)
// plus the mutex that serializes access to it. Updates and syncs on keys
// hashing to different shards never contend.
//
// unsent, dirty and the digest are read without the mutex (atomically),
// so flushes, ticks and the digest heartbeat skip clean shards without
// taking their locks; all are only written while holding mu, which keeps
// the flags coherent with the engine state they describe.
type shard struct {
	mu     sync.Mutex
	engine protocol.KeyedEngine
	// od and fl are the same engine through its per-object delivery and
	// first-transmission interfaces, asserted once at construction for
	// the hot paths.
	od protocol.ObjectDeliverer
	fl protocol.Flusher
	// unsent marks a shard a flush must visit: a local update or an
	// inbound delivery has left its engine something never sent.
	// dirty marks a shard a tick must visit: that, or objects still
	// waiting (for acks, so that the tick can decide to send again).
	unsent, dirty atomic.Bool
	// digest is this shard's content digest: the XOR of the content hashes
	// its engine keeps per key (keyHash), as of the last digestLocked. It is
	// current while digestOK — until the engine next has a stale key.
	digest   atomic.Uint64
	digestOK atomic.Bool
	// leaf is the Merkle leaf-hash vector drills read, nil unless one has
	// folded it since the last mutation (see ensureLeavesLocked). Unlike
	// the digest it is only touched under mu, so a plain field suffices.
	leaf *leafVec
}

// touched flags the shard for the passes its engine now needs and, if a
// key's state may have changed, marks the digest out of date and hands the
// leaf vector back; callers hold sh.mu having just used the engine. It
// reports whether a flush has something to ship.
func (sh *shard) touched() bool {
	if sh.engine.Stale() {
		sh.digestOK.Store(false)
		sh.dropLeavesLocked()
	}
	if sh.fl.Waiting() {
		sh.dirty.Store(true)
	}
	if !sh.fl.Unsent() {
		return false
	}
	sh.unsent.Store(true)
	return true
}

// pass runs one flush (first transmissions) or tick (Sync) over the
// shard's engine and re-derives the flags; callers hold sh.mu.
func (sh *shard) pass(tick bool, send protocol.Sender) {
	sh.unsent.Store(false)
	if tick {
		sh.engine.Sync(send)
	} else {
		sh.fl.Flush(send)
	}
	sh.dirty.Store(sh.fl.Waiting())
}

// due reports, without the lock, whether the given kind of pass has to
// visit the shard.
func (sh *shard) due(tick bool) bool {
	if tick {
		return sh.dirty.Load()
	}
	return sh.unsent.Load()
}

// fnv32a is an allocation-free FNV-1a over a key (hash/fnv's hasher
// escapes through the interface and would allocate on every Update/Get).
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// shardOf routes a key to its shard by FNV-1a hash.
func (c *core) shardOf(key string) *shard {
	return c.shards[fnv32a(key)&c.mask]
}

// update applies one local operation under its key's shard lock alone, and
// reports whether it asked for the first flush since the last pass: step
// then has a deadline the caller's loop does not know of yet.
func (c *core) update(op workload.Op) bool {
	sh := c.shardOf(op.Key)
	sh.mu.Lock()
	sh.engine.LocalOp(op)
	unsent := sh.touched()
	sh.mu.Unlock()
	wake := unsent && c.requestFlush()
	if c.hasWatchers() {
		c.notifyWatchers(op.Key)
	}
	return wake
}

// requestFlush asks step for a first-transmission pass, reporting whether
// it is the first request since the last pass (the others cost one load).
func (c *core) requestFlush() bool {
	return !c.flushWanted.Load() && c.flushWanted.CompareAndSwap(false, true)
}

// shardDigest returns one shard's content digest, without taking the
// shard lock when no key of it has been touched since the last call — the
// common case on an idle keyspace.
func (c *core) shardDigest(sh *shard) uint64 {
	if sh.digestOK.Load() {
		return sh.digest.Load()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.digestLocked()
}

// digestLocked brings the shard's content digest up to date under an
// already-held sh.mu — the snapshotter uses it directly so the digest it
// records and the contents it serializes come from one lock hold. Only
// the keys touched since the last call are encoded and hashed again; each
// one's old hash leaves the digest as its new one enters (XOR is its own
// inverse), so a digest costs what changed, not what the shard holds.
func (sh *shard) digestLocked() uint64 {
	d := sh.digest.Load()
	if sh.digestOK.Load() {
		return d
	}
	var scratch []byte
	sh.engine.Rehash(func(k string, st lattice.State, hash *uint64) {
		scratch = codec.AppendState(scratch[:0], st)
		h := keyHash(k, scratch)
		d ^= *hash ^ h
		*hash = h
	})
	sh.digest.Store(d)
	sh.digestOK.Store(true)
	return d
}

// shardDigests returns the per-shard digest vector in a pooled slice, to
// be handed back with putDigestVec. Clean shards — all of them, on an idle
// store — are read without a lock, allocation-free.
func (c *core) shardDigests() []uint64 {
	vec := c.getDigestVec()
	for i, sh := range c.shards {
		vec[i] = c.shardDigest(sh)
	}
	return vec
}

// getDigestVec hands out a per-shard digest vector from the free list, a
// typed channel rather than a sync.Pool so that a cycle allocates nothing
// (boxing a slice in an interface allocates).
func (c *core) getDigestVec() []uint64 {
	select {
	case v := <-c.digestVecs:
		return v
	default:
		return make([]uint64, len(c.shards))
	}
}

// putDigestVec returns a vector once nothing can reference it: after
// flush, whose packing copies it into frame bytes.
func (c *core) putDigestVec(v []uint64) {
	select {
	case c.digestVecs <- v:
	default:
	}
}

// outBatch accumulates per-destination shard items in first-send order.
type outBatch struct {
	perDest map[string][]protocol.ShardItem
	order   []string
}

func newOutBatch() *outBatch {
	return &outBatch{perDest: make(map[string][]protocol.ShardItem)}
}

// add appends one emission.
func (b *outBatch) add(shardIdx uint32, to string, m protocol.Msg) {
	if len(b.perDest[to]) == 0 {
		b.order = append(b.order, to)
	}
	b.perDest[to] = append(b.perDest[to], protocol.ShardItem{Shard: shardIdx, Msg: m})
}

// sender adapts a shard's engine sends into tagged shard items.
func (b *outBatch) sender(shardIdx uint32) protocol.Sender {
	return func(to string, m protocol.Msg) {
		b.add(shardIdx, to, m)
	}
}

// reset clears the batch for reuse, keeping the per-destination slice
// capacity (the items themselves are zeroed so pooled batches do not pin
// message memory between frames).
func (b *outBatch) reset() {
	for _, to := range b.order {
		items := b.perDest[to]
		clear(items)
		b.perDest[to] = items[:0]
	}
	b.order = b.order[:0]
}

// frameViews pools the unpacked-frame views the inbound path fills per
// frame; a connection at steady state recycles one view (and its item
// slices) across every frame it receives.
var frameViews = sync.Pool{New: func() any { return new(codec.FrameView) }}

// deliverState bundles the per-frame delivery scratch, so one pool Get
// covers the outbound batch and applyAck's buffers.
type deliverState struct {
	b *outBatch
	// acked, ack and key are applyAck's scratch: the δ-groups of the
	// frames an acknowledgement settled, the message each is handed to
	// its engine as, and the key view that goes with it.
	acked []ackItem
	ack   protocol.AckMsg
	key   []byte
}

var deliverStates = sync.Pool{New: func() any { return &deliverState{b: newOutBatch()} }}

func getDeliverState() *deliverState { return deliverStates.Get().(*deliverState) }

func (d *deliverState) release() {
	d.b.reset()
	d.ack.Seqs = nil
	deliverStates.Put(d)
}

// noReply is the Sender a delivery is handed: neither store engine answers
// one — an acked engine's acknowledgement is the link's (link.go). The one
// answer either has, an AckMsg to a δ-group that spells out its entry seqs
// (the per-object form, older than the link header, which a peer may still
// put in a frame), has no wire form and ends here.
func noReply(string, protocol.Msg) {}

// flushesPerTick is the fixed share of SyncEvery that separates two
// passes: a write-triggered flush runs no earlier than SyncEvery/8 after
// the previous flush or tick. It bounds the wait of a write that lands
// right after a pass and the frames a writer that never pauses can cause
// (eight per peer and period). On bench's steady workload (5 ms ticks;
// one run each, seed 7) visible_p50_ms / frames per update read 1.18 /
// 2.16 at a quarter, 1.16 / 2.57 at an eighth, 1.03 / 2.65 at a
// sixteenth, against 3.29 / 1.19 when every write waited for the tick.
const flushesPerTick = 8

// step runs whatever is due at now — the tick, a requested flush whose
// window has passed, acknowledgements whose hold is over — and returns the
// next deadline, the shell's one timer, and whether it ran a pass. Ticks
// keep the phase of the first (one SyncEvery after the clock's zero), and a
// tick a late step missed is skipped, not caught up.
func (c *core) step(now int64) (next int64, pass bool) {
	period := int64(c.cfg.SyncEvery)
	if now >= c.nextTick {
		c.tick(now)
		c.nextTick += period * ((now-c.nextTick)/period + 1)
		pass = true
	}
	next = c.nextTick
	// Unless the tick has shipped what the request was for.
	if c.flushWanted.Load() {
		if at := c.lastSend.Load() + period/flushesPerTick; at > now {
			next = min(next, at) // a tick before then serves the request
		} else {
			c.writeFlush(now)
			pass = true
		}
	}
	return min(next, c.flushAcks(now)), pass
}

// tick runs one synchronization step over the dirty shards — clean ones
// are skipped without their locks — and flushes the coalesced frames: what
// has never been sent, and what the acked engines decide to send again
// (retransmissions happen here only). Every DigestEvery ticks the digest
// vector goes out with the same flush: piggybacked on a data frame to each
// peer getting one anyway, standalone to the others.
func (c *core) tick(now int64) {
	c.flushWanted.Store(false) // this pass serves the request
	d := getDeliverState()
	defer d.release()
	b := d.b
	tick := c.ticks.Add(1)
	for _, lk := range c.linkList {
		lk.age(tick)
	}
	c.collect(b, true)
	if tick%helloEvery == 0 {
		c.out.announce()
	}
	// The digest vector goes to every peer on a DigestEvery tick, riding a
	// data frame where there is one, and standalone on every tick to the
	// neighbors this store is catching up with.
	regular := c.cfg.DigestEvery > 0 && tick%uint64(c.cfg.DigestEvery) == 0
	var vec, ride []uint64
	if regular || c.catchingUp() {
		vec = c.shardDigests()
		defer c.putDigestVec(vec)
		if regular {
			ride = vec
		}
	}
	covered := c.flush(b, ride)
	c.lastSend.Store(now)
	if vec == nil {
		return
	}
	for i, to := range c.neighbors {
		// A neighbor being caught up with is asked for its vector back —
		// it may advertise on no schedule of its own — once the pipeline to
		// it is up: one that is gone for good is dialed, not sent to.
		echo := c.linkList[i].catchUp.left.Load() > 0 && c.out.connect(to)
		if _, ok := covered[to]; !echo && (!regular || ok) {
			continue
		}
		m := protocol.NewDigestMsg(vec)
		m.Echo = echo
		c.transmitMsg(to, m, frameDigest)
	}
}

// helloEvery is the number of ticks between two refreshes of the hello on
// every connection. A hello is only ever lost to a fault, and until the
// next one the neighbor forwards as if never told — bytes, not
// convergence — so the refresh is rare: one small frame per neighbor and
// 64 ticks.
const helloEvery = 64

// catchingUp reports whether any neighbor has a shard left to compare.
func (c *core) catchingUp() bool {
	for _, lk := range c.linkList {
		if lk.catchUp.left.Load() > 0 {
			return true
		}
	}
	return false
}

// writeFlush is the pass between two ticks: first transmissions only —
// no retransmission, no digest advertisement, no heartbeat, and Ticks
// does not advance. A pass that finds no shard with anything unsent takes
// no lock and allocates nothing.
func (c *core) writeFlush(now int64) {
	c.flushWanted.Store(false) // this pass serves the request
	if c.anyDue(false) {
		d := getDeliverState()
		c.collect(d.b, false)
		c.flush(d.b, nil)
		d.release()
	}
	c.wire.writeFlushes.Add(1)
	c.lastSend.Store(now)
}

// anyDue reports, without a lock, whether the given kind of pass has a
// shard to visit.
func (c *core) anyDue(tick bool) bool {
	for _, sh := range c.shards {
		if sh.due(tick) {
			return true
		}
	}
	return false
}

// collect runs the per-shard stage of a pass — a tick (engine.Sync over
// the dirty shards) or a flush (first transmissions over the shards with
// something unsent) — accumulating every engine emission on b in
// ascending shard order, each shard's under its own lock.
func (c *core) collect(b *outBatch, tick bool) {
	for i, sh := range c.shards {
		if !sh.due(tick) {
			continue
		}
		sh.mu.Lock()
		sh.pass(tick, b.sender(uint32(i)))
		sh.mu.Unlock()
	}
}

// flush packs the accumulated items into bounded frames per destination
// and transmits them; vec, when non-nil, is piggybacked onto one frame
// per destination when it fits, and the returned set names the peers it
// reached. Callers must not hold any shard lock: a slow peer can then
// never block updates or inbound handling on other connections.
func (c *core) flush(b *outBatch, vec []uint64) map[string]struct{} {
	if len(b.order) == 0 {
		return nil
	}
	var covered map[string]struct{}
	var t wireTally
	for _, to := range b.order {
		if c.flushTo(to, b.perDest[to], vec, &t) {
			if covered == nil {
				covered = make(map[string]struct{})
			}
			covered[to] = struct{}{}
		}
	}
	c.wire.add(&t)
	return covered
}

// flushTo packs and transmits one destination's items, reporting whether
// vec rode one of the frames. A neighbor's frames are numbered on its
// link, whose packMu is held until they are queued, in order.
func (c *core) flushTo(to string, items []protocol.ShardItem, vec []uint64, t *wireTally) bool {
	lk := c.links[to]
	if lk != nil {
		lk.packMu.Lock()
		defer lk.packMu.Unlock()
	}
	res, err := packFrames(items, vec, c.maxMsgBytes(), lk)
	if err != nil {
		// Engines produced an unencodable message: a programming
		// error in the engine/codec pairing.
		panic(err)
	}
	if len(res.frames) > 1 {
		t.split += len(res.frames)
	}
	t.oversized += res.oversized
	for _, f := range res.frames {
		kind := frameData
		if f.digests {
			kind = framePiggyback
		}
		c.transmit(to, f.data, f.cost, kind, t)
	}
	return res.digestsAttached
}

// flushAcks sends, at now, a frame that carries nothing else to every
// neighbor whose acknowledgement has been owed for its whole hold, and
// returns when the next hold still running ends — never when none is.
// Until then an acknowledgement waits for a data frame toward its
// neighbor, which takes it (packFrames). With nobody owed it costs one
// atomic load per neighbor.
func (c *core) flushAcks(now int64) int64 {
	hold, next := c.hold.Load(), int64(never)
	for i, lk := range c.linkList {
		if !lk.owed.Load() {
			continue
		}
		if due := lk.owedAt.Load() + hold; due > now {
			next = min(next, due)
		} else {
			c.sendAck(c.neighbors[i], lk)
		}
	}
	return next
}

// sendAck ships the acknowledgement to is owed, if it still is, as a
// sharded frame with a link header and no items: the hold is over and no
// data frame took it.
func (c *core) sendAck(to string, lk *link) {
	ack, ok := lk.takeAck()
	if !ok {
		return
	}
	link := protocol.LinkHeader{Ack: ack}
	data := codec.AppendShardedHeader(make([]byte, 0, codec.ShardedHeaderSize(link, nil, 0)), link, nil, 0)
	var t wireTally
	c.transmit(to, data, metrics.Transmission{Messages: 1, MetadataBytes: link.MetadataBytes()}, frameAck, &t)
	c.wire.add(&t)
}

// maxMsgBytes is the largest encoded message one data frame carries under
// the cap after its header (the 2-byte sender length, of an id only a hello
// spells out; receivers do not count the length prefix): the packer's
// budget.
func (c *core) maxMsgBytes() int {
	return c.cfg.MaxFrameBytes - 2
}

// frameKind classifies a frame for the wire accounting: shard items only,
// a standalone DigestMsg heartbeat or TreeMsg hash push, shard items plus
// the digest vector, an acknowledgement and no items, or a hello.
type frameKind int

const (
	frameData frameKind = iota
	frameDigest
	framePiggyback
	frameAck
	frameHello
)

// wireCounters are the counters every frame moves, as atomics — passes
// run on the sync loop and every read goroutine at once — to which a pass
// adds its wireTally once, however many frames it sent.
type wireCounters struct {
	frames, wireBytes, digestFrames, piggybacked atomic.Int64
	splitFrames, oversized, writeFlushes         atomic.Int64
	ackFrames, helloFrames                       atomic.Int64
	messages, elements, payload, metadata        atomic.Int64 // Sent
}

// wireTally is what one pass handed to the write pipelines.
type wireTally struct {
	frames, wireBytes, digestFrames, piggybacked, split, oversized int
	ackFrames, helloFrames                                         int
	sent                                                           metrics.Transmission
}

func (w *wireCounters) add(t *wireTally) {
	addN(&w.frames, t.frames)
	addN(&w.wireBytes, t.wireBytes)
	addN(&w.digestFrames, t.digestFrames)
	addN(&w.piggybacked, t.piggybacked)
	addN(&w.ackFrames, t.ackFrames)
	addN(&w.helloFrames, t.helloFrames)
	addN(&w.splitFrames, t.split)
	addN(&w.oversized, t.oversized)
	addN(&w.messages, t.sent.Messages)
	addN(&w.elements, t.sent.Elements)
	addN(&w.payload, t.sent.PayloadBytes)
	addN(&w.metadata, t.sent.MetadataBytes)
}

// addN skips the atomic for the counters a pass did not move.
func addN(c *atomic.Int64, n int) {
	if n != 0 {
		c.Add(int64(n))
	}
}

// snapshot copies the counters into their StoreStats fields.
func (w *wireCounters) snapshot(st *StoreStats) {
	st.Frames = int(w.frames.Load())
	st.WireBytes = int(w.wireBytes.Load())
	st.DigestFrames = int(w.digestFrames.Load())
	st.PiggybackedDigests = int(w.piggybacked.Load())
	st.AckFrames = int(w.ackFrames.Load())
	st.HelloFrames = int(w.helloFrames.Load())
	st.SplitFrames = int(w.splitFrames.Load())
	st.OversizedDropped = int(w.oversized.Load())
	st.WriteFlushes = int(w.writeFlushes.Load())
	st.Sent = metrics.Transmission{
		Messages:      int(w.messages.Load()),
		Elements:      int(w.elements.Load()),
		PayloadBytes:  int(w.payload.Load()),
		MetadataBytes: int(w.metadata.Load()),
	}
}

// counters returns the core's counters, with each neighbor's link view and
// announcement filled into peers, the port's own per-peer stats.
func (c *core) counters(peers map[string]PeerStats) StoreStats {
	c.statsMu.Lock()
	st := c.stats
	c.statsMu.Unlock()
	c.wire.snapshot(&st)
	st.RepairTimeouts = c.repair.expired()
	for _, sh := range c.shards {
		if r, ok := sh.engine.(interface{ Retransmits() uint64 }); ok {
			sh.mu.Lock()
			st.Retransmits += int(r.Retransmits())
			sh.mu.Unlock()
		}
	}
	st.Peers = peers
	for i, id := range c.neighbors {
		ps := st.Peers[id]
		c.linkList[i].fill(&ps)
		if c.reach != nil {
			ps.Reaches = c.reach.Of(id)
		}
		st.Peers[id] = ps
	}
	if c.reach != nil {
		st.Withheld = int(c.reach.Withheld())
	}
	return st
}

// transmit hands one frame to the port and tallies it: the wire stats
// count frames handed to the pipeline. A frame lost downstream shows up in
// Stats().Peers[to].Dropped, and is resent by an acked engine or repaired
// by digest anti-entropy; plain delta without digests loses it.
func (c *core) transmit(to string, data []byte, cost metrics.Transmission, kind frameKind, t *wireTally) {
	if err := c.out.transmit(to, data); err != nil {
		return // neighbor down or unknown; repaired on a later tick
	}
	c.tally(data, cost, kind, t)
}

// tally counts one frame of this store's on t, as many bytes as it takes on
// the socket (frameWriter): a hello names the sender, no other frame does.
func (c *core) tally(data []byte, cost metrics.Transmission, kind frameKind, t *wireTally) {
	t.frames++
	t.wireBytes += frameHeaderBytes + len(data)
	switch kind {
	case frameDigest:
		t.digestFrames++
	case framePiggyback:
		t.piggybacked++
	case frameAck:
		t.ackFrames++
	case frameHello:
		t.helloFrames++
		t.wireBytes += len(c.cfg.ID)
	}
	t.sent.Add(cost)
}

// errNoHello refuses a connection whose first frame is not its hello: what
// it carries cannot be booked to a life of its sender.
var errNoHello = errors.New("transport: a connection's first frame is not its hello")

// deliver routes one inbound frame, arrived at now on a connection from
// from: sharded data frames through the single-pass unpacker to their
// shards — applied whole or not at all — anything else (hello, digest and
// tree frames) through DecodeMsg. inc is the connection's word for the
// incarnation its hello named, 0 until the hello has arrived, which
// handleHello records; the numbered frames on the connection are of that
// life. The frame bytes alias the connection's read buffer, so the view is
// reset before it returns to the pool. It reports, as update does, whether
// step has a new deadline; an error drops the connection (a corrupt peer,
// or one that has not introduced itself).
func (c *core) deliver(from string, inc *uint32, frame []byte, now int64) (bool, error) {
	v := frameViews.Get().(*codec.FrameView)
	err := codec.UnpackFrame(frame, len(c.shards), v)
	wake := false
	switch {
	case err == nil && *inc == 0:
		err = errNoHello
	case err == nil:
		v.Link.Seq.Inc = *inc
		wake = c.deliverSharded(from, v, now)
	case errors.Is(err, codec.ErrNotSharded):
		err = c.deliverControl(from, inc, frame, now)
	}
	v.Reset() // drop references to the read buffer before pooling
	frameViews.Put(v)
	return wake, err
}

// deliverSharded applies one unpacked data frame. Each touched shard's
// lock is taken exactly once per frame — the whole group of that shard's
// items, decoded already, is applied under the single hold. What the frame
// causes to be sent (a drill's answer, this store's side of a digest
// mismatch) flushes inline: transmit never blocks, so two nodes with
// mutually full send buffers cannot deadlock each other.
//
// The frame's link header is handled around the items: the
// acknowledgement it brings retires what this store sent, and its own
// sequence number is noted as received — and acknowledged — only once
// every item has been applied.
func (c *core) deliverSharded(from string, v *codec.FrameView, now int64) bool {
	d := getDeliverState()
	defer d.release()
	lk := c.links[from]
	if v.Link.Ack.Inc != 0 {
		c.applyAck(from, lk, &v.Link.Ack, d)
	}
	watched := c.hasWatchers()
	forward := false // some shard was left with something never sent
	for _, g := range v.Groups() {
		sh := c.shards[g.Shard]
		var closeMsg *protocol.TreeMsg
		sh.mu.Lock()
		c.deliverLocks.Add(1)
		for i := range g.Items {
			iv := &g.Items[i]
			m, _ := iv.Msg()
			if iv.Key == nil {
				// The one bare message stores send inside a data frame is
				// the TreeMsg that closes a drill, after the states it goes
				// with; the engines have no use for any other. Should one
				// group hold two, one that asks for an answer is the one to
				// keep.
				if tm, ok := m.(*protocol.TreeMsg); ok && (closeMsg == nil || len(tm.Nodes) > 0) {
					closeMsg = tm
				}
				continue
			}
			sh.od.DeliverObject(from, iv.Key, m, noReply)
		}
		forward = sh.touched() || forward
		sh.mu.Unlock()
		// A close that names ranges asks for this store's side of them; one
		// that names nothing says the drill with its sender is over.
		if closeMsg != nil && len(closeMsg.Nodes) > 0 {
			c.answerClose(from, closeMsg, g, d.b, now)
		} else if closeMsg != nil {
			c.repair.clearFrom(int(g.Shard), from)
		}
		if watched {
			c.notifyGroup(g)
		}
	}
	if v.Dropped > 0 {
		c.statsMu.Lock()
		c.stats.DroppedItems += v.Dropped
		c.statsMu.Unlock()
	}
	// A piggybacked digest vector is an advertisement like any other,
	// compared after the frame's own items have been merged (they are
	// part of the state the digests describe).
	c.handleDigests(from, v.Digests, d.b, now)
	// A frame with an item that was dropped for a shard this store does
	// not have is not acknowledged: the sender keeps every entry it
	// carried and sends them again.
	held := false
	if lk != nil && v.Link.Seq.Seq != 0 && v.Dropped == 0 {
		held = lk.receive(v.Link.Seq, now)
	}
	wake := forward && c.requestFlush()
	c.flush(d.b, nil)
	// The acknowledgement rides the first data frame toward from that
	// leaves within its hold — what this frame made this store answer
	// (above), a forward, a write — and acknowledges every frame that
	// arrived meanwhile. Once the hold is over it leaves alone: here, under
	// a hold of 0, or from the step due when it ends, which a hold that
	// starts here has to tell the caller's loop of.
	if c.flushAcks(now) != never && held {
		wake = true
	}
	return wake
}

// applyAck hands the δ-groups of the frames ack settles to their engines,
// each as the AckMsg the engine would have been sent for it, one lock
// hold per shard. lk is from's link, nil for a non-neighbor.
func (c *core) applyAck(from string, lk *link, ack *protocol.FrameAck, d *deliverState) {
	ok := false
	if lk != nil {
		d.acked, ok = lk.acknowledge(ack, d.acked[:0])
	}
	if !ok {
		c.statsMu.Lock()
		c.stats.IgnoredAcks++
		c.statsMu.Unlock()
		return
	}
	items := d.acked
	// One frame's δ-groups are in shard order; several frames' are not.
	byShard := func(a, b ackItem) int { return cmp.Compare(a.shard, b.shard) }
	if !slices.IsSortedFunc(items, byShard) {
		slices.SortStableFunc(items, byShard)
	}
	for i := 0; i < len(items); {
		shard := items[i].shard
		sh := c.shards[shard]
		sh.mu.Lock()
		c.deliverLocks.Add(1)
		for ; i < len(items) && items[i].shard == shard; i++ {
			d.key = append(d.key[:0], items[i].key...)
			d.ack.Seqs = items[i].seqs
			sh.od.DeliverObject(from, d.key, &d.ack, noReply)
		}
		sh.mu.Unlock()
	}
	clear(items)
}

// notifyGroup offers the keys one shard group's items touched to the
// registered watchers, conservatively — a delivery the engine found
// redundant still counts as a (coalesced) change.
func (c *core) notifyGroup(g codec.ItemGroup) {
	for i := range g.Items {
		if iv := &g.Items[i]; iv.Key != nil {
			c.notifyWatchers(string(iv.Key))
		}
	}
}

// deliverControl handles the non-sharded frames a store speaks: the
// HelloMsg a connection opens with, the standalone DigestMsg
// (advertisement heartbeat) and the TreeMsg hash pushes of a drill.
// Anything else well-formed is ignored and the connection kept;
// undecodable bytes, a hello this store refuses and anything before the
// hello drop the connection.
func (c *core) deliverControl(from string, inc *uint32, frame []byte, now int64) error {
	msg, _, err := codec.DecodeMsg(frame)
	if err != nil {
		return err
	}
	if m, ok := msg.(*protocol.HelloMsg); ok {
		return c.handleHello(from, inc, m)
	}
	if *inc == 0 {
		return errNoHello
	}
	d := getDeliverState()
	defer d.release()
	echo := false
	switch m := msg.(type) {
	case *protocol.DigestMsg:
		c.handleDigests(from, m.Digests, d.b, now)
		echo = m.Echo
	case *protocol.TreeMsg:
		c.handleTree(from, m, d.b, now)
	default:
		return nil // stores speak only sharded, hello, digest and tree frames
	}
	c.flush(d.b, nil)
	if echo {
		c.echoDigests(from) // behind what the drills shipped
	}
	return nil
}

// hello encodes and counts the announcement a connection of this store's
// opens with: the wire version, the shard count, this life's incarnation,
// and reaches, the peers its pipelines are connected to.
func (c *core) hello(reaches []string) []byte {
	m := protocol.NewHelloMsg(protocol.WireVersion, uint32(len(c.shards)), c.inc, reaches)
	data, err := codec.EncodeMsg(m)
	if err != nil {
		panic(err)
	}
	var t wireTally
	c.tally(data, m.Cost(), frameHello, &t)
	c.wire.add(&t)
	return data
}

// handleHello takes a peer's announcement on a connection whose word inc
// is. One that names another shard count or wire version is refused, which
// closes the connection before any of its items is routed, and so is one
// that names another incarnation than the connection's first hello did;
// otherwise the connection is of the life it names, and what it reaches
// replaces what from was known to reach.
func (c *core) handleHello(from string, inc *uint32, m *protocol.HelloMsg) error {
	if m.Version != protocol.WireVersion || int(m.Shards) != len(c.shards) {
		c.statsMu.Lock()
		c.stats.HelloRefused++
		c.statsMu.Unlock()
		return fmt.Errorf("transport: %s refuses %s: it speaks wire version %d over %d shards, not %d over %d",
			c.cfg.ID, from, m.Version, m.Shards, protocol.WireVersion, len(c.shards))
	}
	if *inc != 0 && m.Inc != *inc {
		return fmt.Errorf("transport: %s's connection of incarnation %#x says it is of %#x", from, *inc, m.Inc)
	}
	*inc = m.Inc
	c.setReach(from, m.Reaches)
	return nil
}

// gone takes the end of the last inbound connection from a neighbor.
func (c *core) gone(from string) { c.setReach(from, nil) }

// setReach records what neighbor w says it reaches: ids, or nothing once
// the last inbound connection from w has ended. Every neighbor v that
// thereby leaves the set is one the engines may have withheld δ-groups from
// on w's word, and w may not have delivered them: everything w sent here
// has been applied (TCP order), so from now on matching digests with v
// prove that v holds it too. Every shard is marked for that comparison
// (tick, handleDigests); the drill repairs what differs. A store whose
// engine withholds nothing has nothing to cover for.
func (c *core) setReach(w string, ids []string) {
	if c.reach == nil {
		return
	}
	marked := 0
	for _, v := range c.reach.Set(w, ids) {
		marked += c.links[v].catchUp.all(len(c.shards))
	}
	if marked > 0 {
		c.statsMu.Lock()
		c.stats.CatchUpShards += marked
		c.statsMu.Unlock()
	}
}

// echoDigests answers an advertisement that asked for one back, unless
// this store is catching up with from itself and so advertises to it on
// every tick anyway.
func (c *core) echoDigests(from string) {
	if lk := c.links[from]; lk == nil || lk.catchUp.left.Load() > 0 {
		return
	}
	vec := c.shardDigests()
	c.transmitMsg(from, protocol.NewDigestMsg(vec), frameDigest)
	c.putDigestVec(vec)
}
