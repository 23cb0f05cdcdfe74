package transport

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

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
// socket: the shell (Store, store.go) owns all four. It has one owner at a
// time: every call runs under core.mu, so the core handles one event at a
// time, as the paper's Algorithm 1 does, in the order the callers took the
// lock.

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
	// mu is the core's one lock: it guards every field below that changes
	// after construction, and the shards' and links' own. The shell
	// holds it around each call it makes — update, step, SyncNow, Close's
	// last pass, counters, the digests, a snapshot's cut of a shard, the
	// peer network's hello and gone, watcher registration — and deliver
	// takes it itself once its frame is unpacked. Readers of the keyspace
	// never take it: they take a shard's own lock (shard.mu).
	mu        sync.Mutex
	cfg       StoreConfig
	inc       uint32 // this life's incarnation, which every hello names
	out       port
	shards    []*shard
	neighbors []string // sorted peer ids
	// links holds the acknowledgement state per neighbor, linkList the
	// same in neighbors order; both fixed at construction.
	links    map[string]*link
	linkList []*link
	// reach is what the neighbors have announced they reach: a delivery
	// consults it before it asks for a flush (deliverSharded), and every
	// engine before it forwards. It records the neighbors a forward was
	// withheld from on a word, each of which is caught up with once that
	// word stops holding (setReach). A forward the plain delta engine
	// holds back on it is late, never withheld, and owes no catch-up.
	reach  *protocol.Reach
	repair repairTable
	ticks  uint64
	// deliverLocks counts the shard write locks of the inbound delivery
	// path — one per touched shard per frame, an invariant an instrumented
	// test pins.
	deliverLocks uint64
	// stats holds every counter Stats reports but the peer pipelines' and
	// the engines' own.
	stats StoreStats
	// hold is how long an owed acknowledgement waits before it rides a
	// data frame, and half how long before it leaves alone; the shell sets
	// it (ackHoldsPerTick).
	hold int64
	// waits is the ticks an entry waits for each neighbor's
	// acknowledgement before it is sent again, in neighbors order: every
	// engine reads it (protocol.PerObject.ResendAfter), and each tick
	// refreshes it from the links' round trips (link.wait).
	waits []uint8
	// The write-triggered flush. flushWanted is set by the first update
	// after a pass, or delivery that leaves a forward owed to a neighbor the
	// frame's sender does not reach (deliverSharded), and cleared by the
	// next pass (flush or tick); flushHeld records that step put the
	// request off. sendAt is the flush budget (flushBurst): a requested
	// flush runs once now reaches sendAt less flushBurst-1 windows. A pass
	// advances it from its start, and the shell, which can read the clock
	// again, by the pass's own duration, so that slow passes leave fewer,
	// fuller flushes. nextTick is when step runs the next tick.
	flushWanted bool
	flushHeld   bool
	sendAt      int64
	nextTick    int64
	// batch is what a pass or a delivery collects its sends on, handed
	// back reset; acked the δ-groups of the frames an acknowledgement
	// settled (applyAck); digestVec the per-shard digest vector a tick or
	// an echo advertises: one of each, reused by every call.
	batch     *outBatch
	acked     []ackItem
	digestVec []uint64
	watchers  []*Watcher
}

// newCore builds one engine per shard and one link per neighbor from a
// defaulted config; inc is this life's incarnation. out is left to set.
func newCore(cfg StoreConfig, inc uint32) (*core, error) {
	if cfg.ObjType == nil {
		return nil, fmt.Errorf("transport: StoreConfig needs ObjType")
	}
	var inner protocol.Factory
	switch cfg.Engine {
	case EngineAcked:
		inner = protocol.NewDeltaAcked(true, true)
	case EngineDelta:
		inner = protocol.NewDeltaBPRR()
	default:
		return nil, fmt.Errorf("transport: unknown engine %d", cfg.Engine)
	}
	if len(cfg.ID) > maxIDBytes {
		return nil, fmt.Errorf("transport: replica id is %d bytes, a frame carries at most %d", len(cfg.ID), maxIDBytes)
	}
	neighbors := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		neighbors = append(neighbors, id)
	}
	sort.Strings(neighbors)
	// The core keeps the table of what the neighbors have said, and hands
	// it to every engine: the acked one withholds on a neighbor's word,
	// which the table records for setReach; the plain one only holds a
	// forward back on it.
	reach := protocol.NewReach(neighbors)
	waits := make([]uint8, len(neighbors))
	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		// A store's engines prune by receipt: a neighbor that sent a
		// δ-group is not sent back what it covered.
		shards[i] = &shard{ks: protocol.NewKeyspace(inner, cfg.ObjType, protocol.Config{
			ID:             cfg.ID,
			Neighbors:      neighbors,
			Reach:          reach,
			PruneOnReceipt: true,
		})}
		shards[i].ks.ResendAfter(waits)
	}
	c := &core{
		cfg:       cfg,
		inc:       inc,
		shards:    shards,
		neighbors: neighbors,
		links:     make(map[string]*link, len(neighbors)),
		linkList:  make([]*link, len(neighbors)),
		reach:     reach,
		waits:     waits,
		repair:    repairTable{timeout: int64(repairTimeout), entries: make([]repairEntry, cfg.Shards)},
		sendAt:    flushBurst * int64(cfg.SyncEvery/flushesPerTick), // an empty budget
		nextTick:  int64(cfg.SyncEvery),
		batch:     newOutBatch(len(neighbors)),
		digestVec: make([]uint64, cfg.Shards),
	}
	for i, id := range neighbors {
		c.linkList[i] = newLink(inc)
		c.links[id] = c.linkList[i]
		waits[i] = unsampledWait
	}
	return c, nil
}

// shard is one partition of the keyspace: a per-object engine, and the
// content digest the core keeps of it. What a pass has to visit and whether
// the digest is current the engine itself says (Unsent, Waiting, Stale).
//
// mu is for the readers of the keyspace (Get, View, Query, Scan, Keys,
// NumKeys, Memory), which never take core.mu: a read never waits behind a
// pass, only behind a change to its own shard. The owner — a caller
// holding core.mu — takes the write lock around every engine call that
// changes the engine, always after core.mu; what it only reads it reads
// without mu, since nobody else writes. The engine's Scan and Memory
// settle lazy state (the key order, a scratch buffer) and take the write
// lock too, by readers and owner alike. Every other field is the owner's.
type shard struct {
	mu sync.RWMutex
	ks *protocol.PerObject
	// digest is this shard's content digest: the XOR of the content hashes
	// its engine keeps per key (keyHash), as of the last rehash — current
	// until the engine next has a stale key.
	digest uint64
}

// pass runs one flush (first transmissions) or tick over the shard's
// engine, handing emit its δ-groups (protocol.PerObject.Pass).
func (sh *shard) pass(tick bool, emit protocol.Emit) {
	sh.mu.Lock()
	sh.ks.Pass(tick, emit)
	sh.mu.Unlock()
}

// endHolds ends the engine's holds on forwards toward the neighbor to, or
// toward every neighbor for the empty id, and reports whether it ended
// one (protocol.PerObject.EndHolds): the shard's next pass makes them.
func (sh *shard) endHolds(to string) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.ks.EndHolds(to)
}

// due reports whether the given kind of pass has to visit the shard: a tick
// one whose engine has objects waiting — to be sent, or for acks, so that
// the tick can decide to send again — a flush one with something never
// sent.
func (sh *shard) due(tick bool) bool {
	if tick {
		return sh.ks.Waiting()
	}
	return sh.ks.Unsent()
}

// shardOf returns the shard key routes to (protocol.ShardOf): the one a
// local write, a restored key and an inbound keyed item of it all reach.
func (c *core) shardOf(key string) *shard {
	return c.shards[protocol.ShardOf(key, len(c.shards))]
}

// update applies one local operation, and reports whether it asked for
// the first flush since the last pass: step then has a deadline the
// caller's loop does not know of yet.
func (c *core) update(op workload.Op) bool {
	sh := c.shardOf(op.Key)
	sh.mu.Lock()
	sh.ks.LocalOp(op)
	sh.mu.Unlock()
	wake := sh.ks.Unsent() && c.requestFlush()
	if len(c.watchers) > 0 {
		c.notifyWatchers(op.Key)
	}
	return wake
}

// requestFlush asks step for a first-transmission pass, reporting whether
// it is the first request since the last pass.
func (c *core) requestFlush() bool {
	if c.flushWanted {
		return false
	}
	c.flushWanted = true
	return true
}

// rehash brings the shard's content digest up to date and returns it.
// Only the keys touched since the last call are encoded and hashed again;
// each one's old hash leaves the digest as its new one enters (XOR is its
// own inverse), so a digest costs what changed, not what the shard holds,
// and nothing on an idle keyspace.
func (sh *shard) rehash() uint64 {
	if !sh.ks.Stale() {
		return sh.digest
	}
	var enc []byte
	d := sh.digest
	sh.mu.Lock() // the engine keeps the hashes
	sh.ks.Rehash(func(k string, st lattice.State, hash *uint64) {
		enc = codec.AppendState(enc[:0], st)
		h := keyHash(k, enc)
		d ^= *hash ^ h
		*hash = h
	})
	sh.mu.Unlock()
	sh.digest = d
	return d
}

// shardDigests fills the core's one digest vector, which the caller must
// be done with before it next calls this; clean shards — all of them, on
// an idle store — cost a load each.
func (c *core) shardDigests() []uint64 {
	for i, sh := range c.shards {
		c.digestVec[i] = sh.rehash()
	}
	return c.digestVec
}

// outBatch is what a pass or a delivery has for each neighbor, by
// position, until it flushes, with the neighbors in first-send order. emit
// is group, bound once: what a shard's pass hands its δ-groups.
type outBatch struct {
	dests []outDest
	order []int
	emit  protocol.Emit
}

// outDest is one neighbor's part of an outBatch, which packFrames packs:
// the δ-groups of keys, in shard order, and the bare items, the closes of
// drills. covered is set once the digest vector has ridden its frames.
type outDest struct {
	groups  []group
	bare    []protocol.ShardItem
	covered bool
}

// group is one key's δ-group, as a pass emits it (protocol.Emit).
type group struct {
	key   string
	delta lattice.State
	seqs  []uint64
	retry bool
}

func newOutBatch(neighbors int) *outBatch {
	b := &outBatch{dests: make([]outDest, neighbors)}
	b.emit = b.group
	return b
}

// dest returns to's part, noting the first send to it.
func (b *outBatch) dest(to int) *outDest {
	d := &b.dests[to]
	if len(d.groups)+len(d.bare) == 0 {
		b.order = append(b.order, to)
	}
	return d
}

func (b *outBatch) group(key string, to int, delta lattice.State, seqs []uint64, retry bool) {
	d := b.dest(to)
	d.groups = append(d.groups, group{key, delta, seqs, retry})
}

// reset clears the batch for reuse, keeping each destination's arrays,
// zeroed so that a reused batch pins no δ-group's state, unless they hold
// more than keptGroups δ-groups: a bulk pass leaves thousands toward a
// peer, which the batch would otherwise hold on to between passes.
func (b *outBatch) reset() {
	for _, to := range b.order {
		d := &b.dests[to]
		clear(d.groups)
		clear(d.bare)
		groups := d.groups[:0]
		if cap(groups) > keptGroups {
			groups = nil
		}
		*d = outDest{groups: groups, bare: d.bare[:0]}
	}
	b.order = b.order[:0]
}

// keptGroups is the most δ-groups toward one neighbor, 16 KB of them, whose
// array a batch keeps between passes.
const keptGroups = 256

// flushesPerTick is the rate of the flush budget: passes — write-triggered
// flushes and ticks alike — run at eight per SyncEvery on average, one per
// window of SyncEvery/8. The window bounds the wait of a write that finds
// the budget spent and the frames a writer that never pauses can cause
// (eight per peer and period). Forwards the frame's sender delivers itself
// spend none of it (deliverSharded): on a full mesh of plain delta
// replicas each write's forwards would ask for two more passes, and the
// writes would queue behind them. Nor does a forward the engine holds
// (Config.PruneOnReceipt): only a tick ends a hold, or a digest exchange
// (EndHolds), and the pass that follows makes it.
const flushesPerTick = 8

// flushBurst is the depth of the flush budget. A store idle for flushBurst
// windows runs that many passes back to back, so a write that lands right
// after a pass leaves at once instead of waiting out a window; then one
// more per window. The budget fills only while the store is idle: a pass
// that served a request step had put off empties it, so a timer that fires
// late saves nothing up, and a writer that never pauses gets one pass a
// window after the last, as under a fixed spacing of SyncEvery/8. At most
// flushesPerTick+flushBurst-1 write-triggered flushes run in any one
// period. Against that fixed spacing, in alternating pairs on bench
// (2 cores, seed 1; medians), visible_p50_ms went 2.10 → 1.18 ms on bulk
// (10 pairs), 2.25 → 1.48 on repair and 0.85 → 0.66 on steady (5 each),
// for 3.4 % more bytes per update on steady: its writers are mostly idle,
// so their writes leave at once instead of two to a frame.
const flushBurst = 4

// step runs whatever is due at now — the tick, a requested flush the
// budget has room for, acknowledgements whose hold is over — and returns
// the next deadline, the shell's one timer, and whether it ran a pass.
// Ticks keep the phase of the first (one SyncEvery after the clock's zero),
// and a tick a late step missed is skipped, not caught up.
func (c *core) step(now int64) (next int64, pass bool) {
	period := int64(c.cfg.SyncEvery)
	if now >= c.nextTick {
		c.tick(now)
		c.nextTick += period * ((now-c.nextTick)/period + 1)
		pass = true
	}
	next = c.nextTick
	// Unless the tick has shipped what the request was for.
	if c.flushWanted {
		if at := c.sendAt - (flushBurst-1)*(period/flushesPerTick); at > now {
			next = min(next, at) // a tick before then serves the request
			c.flushHeld = true
		} else {
			c.writeFlush(now)
			pass = true
		}
	}
	return min(next, c.flushAcks(now)), pass
}

// tick runs one synchronization step over the dirty shards and flushes
// the coalesced frames: what has never been sent, and what the acked
// engines decide to send again (retransmissions happen here only). Every DigestEvery ticks the digest
// vector goes out with the same flush: piggybacked on a data frame to each
// peer getting one anyway, standalone to the others.
func (c *core) tick(now int64) {
	c.flushWanted = false // this pass serves the request
	defer c.batch.reset()
	b := c.batch
	c.ticks++
	tick := c.ticks
	for i, lk := range c.linkList {
		lk.age(tick)
		c.waits[i] = lk.wait(int64(c.cfg.SyncEvery))
	}
	// The digest vector goes to every peer on a DigestEvery tick, riding a
	// data frame where there is one, and standalone on every tick to the
	// neighbors this store is catching up with. Every held forward goes
	// with it, in the same frames: a receiver merges a frame's items before
	// it compares digests, so no hold shows as a difference there.
	regular := c.cfg.DigestEvery > 0 && tick%uint64(c.cfg.DigestEvery) == 0
	if regular {
		c.endHolds()
	}
	c.collect(b, true)
	if tick%helloEvery == 0 {
		c.out.announce()
	}
	var vec, ride []uint64
	if regular || c.catchingUp() {
		vec = c.shardDigests()
		if regular {
			ride = vec
		}
	}
	c.flush(b, ride, now)
	c.spend(now)
	if vec == nil {
		return
	}
	for i, to := range c.neighbors {
		// A neighbor being caught up with is asked for its vector back —
		// it may advertise on no schedule of its own — once the pipeline to
		// it is up: one that is gone for good is dialed, not sent to.
		echo := c.linkList[i].catchUp.left > 0 && c.out.connect(to)
		if !echo && (!regular || b.dests[i].covered) {
			continue
		}
		m := protocol.NewDigestMsg(vec)
		m.Echo = echo
		c.transmitMsg(to, m, frameDigest)
	}
}

// endHolds ends every hold on a forward, in every shard: the next pass
// makes them all.
func (c *core) endHolds() {
	for _, sh := range c.shards {
		sh.endHolds("")
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
		if lk.catchUp.left > 0 {
			return true
		}
	}
	return false
}

// writeFlush is the pass between two ticks: first transmissions only —
// no retransmission, no digest advertisement, no heartbeat, and Ticks
// does not advance. A pass that finds no shard with anything unsent
// allocates nothing.
func (c *core) writeFlush(now int64) {
	c.flushWanted = false // this pass serves the request
	if c.anyDue(false) {
		c.collect(c.batch, false)
		c.flush(c.batch, nil, now)
		c.batch.reset()
	}
	c.stats.WriteFlushes++
	c.spend(now)
}

// spend charges a pass that started at now to the flush budget: one window,
// or the whole budget when the pass served a request step had put off. A
// tick runs whatever the budget holds, and leaves it empty at worst, so no
// request waits more than a window after the previous pass.
func (c *core) spend(now int64) {
	w := int64(c.cfg.SyncEvery) / flushesPerTick
	if c.flushHeld {
		c.sendAt = now + flushBurst*w
	} else {
		c.sendAt = min(max(c.sendAt, now)+w, now+flushBurst*w)
	}
	c.flushHeld = false
}

// anyDue reports whether the given kind of pass has a shard to visit.
func (c *core) anyDue(tick bool) bool {
	for _, sh := range c.shards {
		if sh.due(tick) {
			return true
		}
	}
	return false
}

// collect runs the per-shard stage of a pass — a tick over the dirty
// shards or a flush (first transmissions) over the shards with something
// unsent — accumulating every δ-group on b in ascending shard order.
func (c *core) collect(b *outBatch, tick bool) {
	for _, sh := range c.shards {
		if sh.due(tick) {
			sh.pass(tick, b.emit)
		}
	}
}

// flush packs the accumulated items into bounded frames per destination
// and transmits them at now; vec, when non-nil, is piggybacked onto one
// frame per destination when it fits, which marks the destination's part
// covered until the batch is reset.
func (c *core) flush(b *outBatch, vec []uint64, now int64) {
	for _, i := range b.order {
		d := &b.dests[i]
		d.covered = c.flushTo(c.neighbors[i], d, vec, now)
	}
}

// flushTo packs and transmits one destination's part at now, reporting
// whether vec rode one of the frames. A neighbor's frames are numbered on
// its link, and the first takes the acknowledgement owed to it once that
// has been held for c.hold.
func (c *core) flushTo(to string, d *outDest, vec []uint64, now int64) bool {
	res, err := packFrames(d, vec, c.maxMsgBytes(), len(c.shards), c.links[to], now, c.hold)
	if err != nil {
		// Engines produced an unencodable message: a programming
		// error in the engine/codec pairing.
		panic(err)
	}
	if len(res.frames) > 1 {
		c.stats.SplitFrames += len(res.frames)
	}
	c.stats.OversizedDropped += res.oversized
	for _, f := range res.frames {
		kind := frameData
		if f.digests {
			kind = framePiggyback
		}
		c.transmit(to, f.data, f.cost, kind)
	}
	return res.digestsAttached
}

// flushAcks sends, at now, a frame that carries nothing else to every
// neighbor whose acknowledgement has been owed for twice its hold, and
// returns when the next hold still running ends — never when none is.
// Until then an acknowledgement waits for a data frame toward its
// neighbor, which takes it once it has been owed for the hold (packFrames).
func (c *core) flushAcks(now int64) int64 {
	next := int64(never)
	for i, lk := range c.linkList {
		if !lk.owed {
			continue
		}
		if due := lk.owedAt + 2*c.hold; due > now {
			next = min(next, due)
		} else {
			c.sendAck(c.neighbors[i], lk, now)
		}
	}
	return next
}

// sendAck ships the acknowledgement to is owed, if it still is, as a
// sharded frame with a link header and no items: the hold is over and no
// data frame took it.
func (c *core) sendAck(to string, lk *link, now int64) {
	ack, ok := lk.takeAck(now, 0)
	if !ok {
		return
	}
	link := protocol.LinkHeader{Ack: ack}
	data := codec.AppendShardedHeader(make([]byte, 0, codec.ShardedHeaderSize(link, nil, 0, 0)), link, nil, 0, 0)
	c.transmit(to, data, metrics.Transmission{Messages: 1, MetadataBytes: link.MetadataBytes()}, frameAck)
}

// maxMsgBytes is the largest encoded message one data frame carries under
// the cap after its header (the 2-byte sender length, of an id only a hello
// spells out; receivers do not count the length prefix): the packer's
// budget.
func (c *core) maxMsgBytes() int {
	return c.cfg.maxFrame - 2
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

// counters returns the core's counters, with each neighbor's link view and
// announcement filled into peers, the port's own per-peer stats.
func (c *core) counters(peers map[string]PeerStats) StoreStats {
	st := c.stats
	st.RepairTimeouts = c.repair.timeouts
	for _, sh := range c.shards {
		st.Retransmits += int(sh.ks.Retransmits())
	}
	st.Peers = peers
	for i, id := range c.neighbors {
		ps := st.Peers[id]
		c.linkList[i].fill(&ps)
		ps.Reaches = c.reach.Of(id)
		st.Peers[id] = ps
	}
	st.Withheld = int(c.reach.Withheld())
	return st
}

// transmit hands one frame to the port and tallies it: the wire stats
// count frames handed to the pipeline. A frame lost downstream shows up in
// Stats().Peers[to].Dropped, and is resent by an acked engine or repaired
// by digest anti-entropy; plain delta without digests loses it.
func (c *core) transmit(to string, data []byte, cost metrics.Transmission, kind frameKind) {
	if err := c.out.transmit(to, data); err != nil {
		return // neighbor down or unknown; repaired on a later tick
	}
	c.tally(data, cost, kind)
}

// tally counts one frame of this store's, as many bytes as it takes on the
// socket (frameWriter): a hello names the sender, no other frame does.
func (c *core) tally(data []byte, cost metrics.Transmission, kind frameKind) {
	st := &c.stats
	st.Frames++
	st.WireBytes += frameHeaderBytes + len(data)
	switch kind {
	case frameDigest:
		st.DigestFrames++
	case framePiggyback:
		st.PiggybackedDigests++
	case frameAck:
		st.AckFrames++
	case frameHello:
		st.HelloFrames++
		st.WireBytes += len(c.cfg.ID)
	}
	st.Sent.Add(cost)
}

// errNoHello refuses a connection whose first frame is not its hello: what
// it carries cannot be booked to a life of its sender.
var errNoHello = errors.New("transport: a connection's first frame is not its hello")

// deliver routes one inbound frame, arrived at now on a connection from
// from: sharded data frames through the single-pass unpacker to their
// shards — applied whole or not at all — anything else (hello, digest and
// tree frames) through DecodeMsg. The unpack, into the caller's view v,
// runs before deliver takes core.mu, on the caller's goroutine, and reads
// nothing of the core's but the shard count; the rest runs under it. inc
// is the connection's word for the incarnation its hello named, 0 until
// the hello has arrived, which handleHello records; the numbered frames on
// the connection are of that life. The frame bytes alias the connection's
// read buffer, so v is reset before deliver returns. It reports, as update
// does, whether step has a new deadline; an error drops the connection (a
// corrupt peer, or one that has not introduced itself).
func (c *core) deliver(from string, inc *uint32, v *codec.FrameView, frame []byte, now int64) (bool, error) {
	defer v.Reset()
	err := codec.UnpackFrame(frame, len(c.shards), v)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err == nil && *inc == 0:
		return false, errNoHello
	case err == nil:
		v.Link.Seq.Inc = *inc
		return c.deliverSharded(from, v, now), nil
	case errors.Is(err, codec.ErrNotSharded):
		return false, c.deliverControl(from, inc, frame, now)
	}
	return false, err
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
	defer c.batch.reset()
	lk := c.links[from]
	if v.Link.Ack.Inc != 0 {
		c.applyAck(from, lk, &v.Link.Ack, now)
	}
	// Some shard was left with something never sent, or holds a forward
	// back. A held forward leaves with no flush, but the flush it asks for
	// spaces the passes that follow by the budget's window, as a forward
	// the next flush makes does: on a partial mesh the copies of a
	// δ-group that reach a replica by two paths then prune each other
	// before it forwards either (TestSimTopologies' partial mesh ships
	// 37.65 elements per update so, 39.91 when a held forward asks for
	// nothing).
	forward := false
	for _, g := range v.Groups() {
		sh := c.shards[g.Shard]
		var closeMsg *protocol.TreeMsg
		sh.mu.Lock()
		c.deliverLocks++
		for i := range g.Items {
			iv := &g.Items[i]
			if iv.Key == nil {
				// The one bare message stores send inside a data frame is
				// the TreeMsg that closes a drill, after the states it goes
				// with; the engines have no use for any other. Should one
				// group hold two, one that asks for an answer is the one to
				// keep.
				m, _ := iv.Msg()
				if tm, ok := m.(*protocol.TreeMsg); ok && (closeMsg == nil || len(tm.Nodes) > 0) {
					closeMsg = tm
				}
				continue
			}
			sh.ks.Receive(from, iv.Key, iv.State) // the link acknowledges
		}
		sh.mu.Unlock()
		forward = forward || sh.ks.Unsent() || sh.ks.Holds()
		// A close that names ranges asks for this store's side of them; one
		// that names nothing says the drill with its sender is over.
		if closeMsg != nil && len(closeMsg.Nodes) > 0 {
			c.answerClose(from, closeMsg, g, c.batch, now)
		} else if closeMsg != nil {
			c.repair.clearFrom(int(g.Shard), from)
		}
		if len(c.watchers) > 0 {
			c.notifyGroup(g)
		}
	}
	c.stats.DroppedItems += v.Dropped
	// A piggybacked digest vector is an advertisement like any other,
	// compared after the frame's own items have been merged (they are
	// part of the state the digests describe).
	c.handleDigests(from, v.Digests, c.batch, now)
	// A frame with a bare item that was dropped for a shard this store does
	// not have is not acknowledged: the sender keeps every entry it
	// carried and sends them again.
	held := false
	if lk != nil && v.Link.Seq.Seq != 0 && v.Dropped == 0 {
		held = lk.receive(v.Link.Seq, now)
	}
	// What the frame left unsent asks for a flush only if some of it may be
	// owed to a neighbor from has not announced it reaches. Each one from
	// reaches holds what from sent here or is sent it by from, so forwards
	// to them — every forward of the plain delta engine's on a full mesh —
	// wait for the next pass this store runs anyway: a write's flush, or
	// the tick; one whose neighbor sends its own copy here meanwhile is not
	// made at all (Config.PruneOnReceipt), and to a neighbor that orders
	// before this store the engine holds it until its second tick for that
	// copy. The acked engine buffers none of them (deltaAcked.owed).
	wake := forward && !c.reach.Covers(from) && c.requestFlush()
	c.flush(c.batch, nil, now)
	// The acknowledgement rides the first data frame toward from that
	// leaves once it has been held for c.hold — what a later frame makes
	// this store answer, a forward, a write — and acknowledges every frame
	// that arrived meanwhile. Once twice the hold is over it leaves alone:
	// here, under a hold of 0, or from the step due when it ends, which a
	// hold that starts here has to tell the caller's loop of.
	if c.flushAcks(now) != never && held {
		wake = true
	}
	return wake
}

// applyAck hands the δ-groups of the frames ack, arrived at now, settles
// to their engines, each as the acknowledgement of its entry seqs
// (protocol.PerObject.Ack), one lock hold per shard. lk is from's link,
// nil for a non-neighbor.
func (c *core) applyAck(from string, lk *link, ack *protocol.FrameAck, now int64) {
	ok := false
	if lk != nil {
		c.acked, ok = lk.acknowledge(ack, c.acked[:0], now)
	}
	if !ok {
		c.stats.IgnoredAcks++
		return
	}
	items := c.acked
	// A frame's δ-groups are in key order, which scatters them over the
	// shards, unless they are all one shard's.
	byShard := func(a, b ackItem) int { return cmp.Compare(a.shard, b.shard) }
	if !slices.IsSortedFunc(items, byShard) {
		slices.SortStableFunc(items, byShard)
	}
	for i := 0; i < len(items); {
		shard := items[i].shard
		sh := c.shards[shard]
		sh.mu.Lock()
		c.deliverLocks++
		for ; i < len(items) && items[i].shard == shard; i++ {
			it := &items[i]
			sh.ks.Ack(from, it.key, it.seqs, it.retry)
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
// undecodable bytes, bytes after the message, a hello this store refuses
// and anything before the hello drop the connection.
func (c *core) deliverControl(from string, inc *uint32, frame []byte, now int64) error {
	msg, n, err := codec.DecodeMsg(frame)
	if err != nil {
		return err
	}
	if n != len(frame) {
		return fmt.Errorf("transport: %d bytes after a %s frame", len(frame)-n, msg.Kind())
	}
	if m, ok := msg.(*protocol.HelloMsg); ok {
		return c.handleHello(from, inc, m)
	}
	if *inc == 0 {
		return errNoHello
	}
	b := c.batch
	defer c.batch.reset()
	echo := false
	switch m := msg.(type) {
	case *protocol.DigestMsg:
		c.handleDigests(from, m.Digests, b, now)
		echo = m.Echo
	case *protocol.TreeMsg:
		c.handleTree(from, m, b, now)
	default:
		return nil // stores speak only sharded, hello, digest and tree frames
	}
	c.flush(b, nil, now)
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
	c.tally(data, m.Cost(), frameHello)
	return data
}

// handleHello takes a peer's announcement on a connection whose word inc
// is. One that names another shard count or wire version is refused, which
// closes the connection before any of its items is routed, and so is one
// that names another incarnation than the connection's first hello did;
// otherwise the connection is of the life it names, and what it reaches
// replaces what from was known to reach. A new life of from is sent this
// store's digests at once, so that its drills wait for no advertisement.
// It is not asked for its own back: a drill repairs both ways, and this
// store drilling the same shards at the same time would double the work.
func (c *core) handleHello(from string, inc *uint32, m *protocol.HelloMsg) error {
	if m.Version != protocol.WireVersion || int(m.Shards) != len(c.shards) {
		c.stats.HelloRefused++
		return fmt.Errorf("transport: %s refuses %s: it speaks wire version %d over %d shards, not %d over %d",
			c.cfg.ID, from, m.Version, m.Shards, protocol.WireVersion, len(c.shards))
	}
	if *inc != 0 && m.Inc != *inc {
		return fmt.Errorf("transport: %s's connection of incarnation %#x says it is of %#x", from, *inc, m.Inc)
	}
	if lk := c.links[from]; lk != nil {
		if *inc == 0 {
			// A new connection may carry a new life of from, restored from
			// anywhere: what its digests matched before says nothing now,
			// and its first advertisement that differs drills at once.
			clear(lk.matched)
		}
		if lk.helloInc != 0 && lk.helloInc != m.Inc && c.cfg.DigestEvery > 0 {
			c.transmitMsg(from, protocol.NewDigestMsg(c.shardDigests()), frameDigest)
		}
		lk.helloInc = m.Inc
	}
	*inc = m.Inc
	c.setReach(from, m.Reaches)
	return nil
}

// gone takes the end of the last inbound connection from a neighbor.
func (c *core) gone(from string) { c.setReach(from, nil) }

// setReach records what neighbor w says it reaches: ids, or nothing once
// the last inbound connection from w has ended. Every neighbor v that
// thereby leaves the set having had a forward withheld from it on w's word
// (protocol.Reach.Set) may lack what w has not delivered: everything w
// sent here has been applied (TCP order), so from now on matching digests
// with v prove that v holds it too. Every shard is marked for that
// comparison (tick, handleDigests); the drill repairs what differs. A
// neighbor nothing was withheld from has nothing to cover for: the plain
// engine only lets forwards on w's word wait for its next pass, and sends
// them then.
func (c *core) setReach(w string, ids []string) {
	for _, v := range c.reach.Set(w, ids) {
		c.stats.CatchUpShards += c.links[v].catchUp.all(len(c.shards))
	}
}

// echoDigests answers an advertisement that asked for one back, unless
// this store is catching up with from itself and so advertises to it on
// every tick anyway.
func (c *core) echoDigests(from string) {
	if lk := c.links[from]; lk == nil || lk.catchUp.left > 0 {
		return
	}
	c.transmitMsg(from, protocol.NewDigestMsg(c.shardDigests()), frameDigest)
}
