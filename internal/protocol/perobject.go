package protocol

import (
	"hash/maphash"
	"math/bits"
	"slices"

	"crdtsync/internal/core"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/workload"
)

// ObjectMsg is one object's protocol message inside a batch.
type ObjectMsg struct {
	Key   string
	Inner Msg
}

// BatchMsg groups the per-object messages a node sends to one neighbor in
// one synchronization step, with batch-level accounting: one sequence
// number for the whole message plus the object keys as routing metadata
// (the inner per-message metadata is replaced, matching the paper's
// "sequence number per neighbor" delta-based cost model).
type BatchMsg struct {
	Items []ObjectMsg
	cost  metrics.Transmission
}

// Kind implements Msg.
func (m *BatchMsg) Kind() string { return "batch" }

// Cost implements Msg.
func (m *BatchMsg) Cost() metrics.Transmission { return m.cost }

// PerObject synchronizes a keyspace of independent CRDT objects, each with
// its own state and δ-buffer — the deployment model of the paper's Retwis
// evaluation (§V-C), where 30 000 objects each have their own δ-buffer and
// the per-object inflation check is what lets classic delta-based behave
// almost optimally at low contention. Every object runs one algorithm, the
// keyspace's, on the datatype its key names (objType): its state is in the
// key's record, its δ-buffer in bufs while it holds anything, and nothing
// else is kept per key. It is the engine a store's shard holds; on top of
// Engine it reads one object at a time, without the aggregate state map,
// and ships, delivers and restores one.
type PerObject struct {
	alg     algorithm
	objType func(key string) workload.Datatype
	// ix is the key record table: every object's state, key and flags, by
	// id. It is the only index there is.
	ix keyIndex
	// bufs holds the δ-buffer of every object whose buffer is not empty,
	// by id: a quiescent object pays nothing for its buffer. It is also
	// the set a tick visits — the objects with something unsent or not yet
	// acknowledged — so that a tick is O(changed) instead of O(keyspace):
	// the large-keyspace win the Retwis evaluation relies on. A buffer that
	// empties is released, not truncated (core.Buffer.Clear), and so is the
	// table: nil whenever no object has a buffer.
	bufs map[uint32]core.Buffer
	// cur is the buffer a call is working on (load, file); empty between
	// calls.
	cur core.Buffer
	// tickIDs is a tick's scratch: the ids of bufs, in key order.
	tickIDs []uint32
	// The lists and counts below each name a subset of bufs a second
	// time, because each answers a question asked on every write or frame
	// — Unsent, Holds, Stale — in O(1) rather than by a walk of the table.
	//
	// unsent queues the objects (flagQueued) whose buffer holds something
	// the next pass sends — never sent, or a forward whose hold has ended
	// (EndHolds) — which is what a first-transmission pass walks, so it
	// never visits the objects that only wait for an ack or a tick.
	unsent []uint32
	// nHeld counts the objects whose δ-buffer holds a forward back for
	// some neighbor (flagHeld): those EndHolds has something to end in.
	nHeld int
	// stale has bit id set when the object's state may have changed since
	// Rehash last visited it, nStale counts the bits. A bitmap rather than
	// one more id list: an engine whose owner never asks for a digest marks
	// every object once and never unmarks it, at one bit a key.
	stale  []uint64
	nStale int
	// b is Sync's and Deliver's adapter to messages.
	b batcher
}

// NewPerObject wraps a delta engine factory (NewDeltaBased, NewDeltaAcked)
// so that every distinct op.Key is replicated as an independent object;
// objType chooses the datatype of each object from its key. Its engines
// are NewKeyspace's.
func NewPerObject(inner Factory, objType func(key string) workload.Datatype) Factory {
	return func(cfg Config) Engine { return NewKeyspace(inner, objType, cfg) }
}

// NewKeyspace builds the keyspace of cfg's node. inner is called once,
// for the algorithm and configuration its engine runs, which the keyspace
// then runs for every key; it must be a delta engine's factory.
func NewKeyspace(inner Factory, objType func(key string) workload.Datatype, cfg Config) *PerObject {
	cfg.Datatype = objType("")
	// The engine is a probe, discarded: its algorithm is the keyspace's.
	e, ok := inner(cfg).(*object)
	if !ok {
		panic("protocol: a keyspace runs the delta engines only")
	}
	ks := &PerObject{alg: e.alg, objType: objType}
	ks.b = batcher{neighbors: cfg.Neighbors, pending: make(map[string][]ObjectMsg, len(cfg.Neighbors))}
	ks.b.emit = ks.b.group
	return ks
}

func (e *PerObject) ID() string { return e.alg.config().cfg.ID }

// NumKeys returns the number of known objects.
func (e *PerObject) NumKeys() int { return len(e.ix.recs) }

// ObjectState returns the state of one object, or nil if the key is
// unknown. The state is shared, not cloned; callers must not mutate it.
func (e *PerObject) ObjectState(key string) lattice.State {
	id, ok := find(&e.ix, maphash.String(keySeed, key), key)
	if !ok {
		return nil
	}
	return e.ix.recs[id].x
}

// Scan visits, in ascending key order, the objects whose key starts with
// prefix — every object, for the empty prefix — until fn returns false.
// The state handed out is the one the record holds, shared as
// ObjectState's is, and the same lattice.State for as long as the engine
// lives: every later change merges into it in place. fn must not call
// back into the engine.
func (e *PerObject) Scan(prefix string, fn func(key string, st lattice.State) bool) {
	for _, id := range e.ix.withPrefix(prefix) {
		r := &e.ix.recs[id]
		if !fn(e.ix.key(r), r.x) {
			return
		}
	}
}

// Stale reports whether Rehash has anything to visit.
func (e *PerObject) Stale() bool { return e.nStale > 0 }

// Rehash visits, in no particular order, each object that a LocalOp, a
// Deliver or a restore has touched since the last call, once. hash is a
// word the engine keeps per object for its owner and never reads: zero in
// a new object, thereafter whatever fn last left there. A store keeps each
// object's content hash in it, so that a digest costs what changed — this
// package cannot hash a state (the codec imports it).
func (e *PerObject) Rehash(fn func(key string, st lattice.State, hash *uint64)) {
	if e.nStale == 0 {
		return
	}
	for w, word := range e.stale {
		for ; word != 0; word &= word - 1 {
			r := &e.ix.recs[w<<6|bits.TrailingZeros64(word)]
			fn(e.ix.key(r), r.x, &r.hash)
		}
		e.stale[w] = 0
	}
	e.nStale = 0
}

// Hashes visits every object's key and hash word, in no particular order.
func (e *PerObject) Hashes(fn func(key string, hash uint64)) {
	for i := range e.ix.recs {
		r := &e.ix.recs[i]
		fn(e.ix.key(r), r.hash)
	}
}

// State aggregates all object states into a map keyed by object key.
// Object states are shared, not cloned; callers must not mutate them.
func (e *PerObject) State() lattice.State {
	m := lattice.NewMap()
	e.Scan("", func(key string, s lattice.State) bool {
		if !s.IsBottom() {
			m.Set(key, s)
		}
		return true
	})
	return m
}

// obj returns the id of one object, creating its record and bottom state
// if need be; h is the key's table hash. The key is only read: a new
// record copies it, and the copy is what objType is shown.
func obj[K string | []byte](e *PerObject, h uint64, key K) uint32 {
	if id, ok := find(&e.ix, h, key); ok {
		return id
	}
	id := add(&e.ix, h, key)
	e.ix.recs[id].x = e.objType(e.ix.keyOf(id)).New()
	e.mutated(id) // a new key is a change, whatever created it
	return id
}

// load puts the δ-buffer of the object id in cur, where a call works on
// it: its entry in bufs, or the empty buffer when it has none. The
// algorithm is handed the buffer by pointer, and a pointer to a local
// would escape through the interface call: cur costs no allocation. The
// call files it when it is done, and nothing it sends may call back into
// the engine meanwhile.
func (e *PerObject) load(id uint32) *core.Buffer {
	e.cur = e.bufs[id]
	return &e.cur
}

// file puts cur back as the δ-buffer of id: an object whose buffer holds
// anything is in bufs, one whose buffer is empty is not.
func (e *PerObject) file(id uint32) {
	switch {
	case e.cur.Len() > 0:
		if e.bufs == nil {
			e.bufs = make(map[uint32]core.Buffer)
		}
		e.bufs[id] = e.cur
		e.setHeld(id, e.cur.Deferred())
	case e.bufs != nil:
		if delete(e.bufs, id); len(e.bufs) == 0 {
			e.bufs = nil // a map never shrinks
		}
		e.setHeld(id, false)
	}
	e.cur = core.Buffer{}
}

// setHeld records whether the δ-buffer of the object id holds a forward
// back.
func (e *PerObject) setHeld(id uint32, held bool) {
	switch r := &e.ix.recs[id]; {
	case held && r.flags&flagHeld == 0:
		r.flags |= flagHeld
		e.nHeld++
	case !held && r.flags&flagHeld != 0:
		r.flags &^= flagHeld
		e.nHeld--
	}
}

// touched files what a LocalOp, a Receive or an Ack just did to the
// buffer of the object id, and queues the object for the next pass when
// the buffer holds something never sent. An ack or a redundant δ-group
// gives a pass nothing new to do.
func (e *PerObject) touched(id uint32) {
	if e.cur.Unsent() {
		e.queue(id)
	}
	e.file(id)
}

// queue puts the object id on the list the next first-transmission
// pass walks, once.
func (e *PerObject) queue(id uint32) {
	if r := &e.ix.recs[id]; r.flags&flagQueued == 0 {
		r.flags |= flagQueued
		e.unsent = append(e.unsent, id)
	}
}

func (e *PerObject) LocalOp(op workload.Op) {
	id := obj(e, maphash.String(keySeed, op.Key), op.Key)
	localOp(e.alg, e.objType(op.Key), e.ix.recs[id].x, e.load(id), op)
	e.shareKey(id)
	e.mutated(id)
	e.touched(id)
}

// shareKey points the entry of a map field at its record's key: a map
// field's state is the one-entry map {object key ↦ register}, and the
// entry a write or a delivery put there holds a second copy of the key
// (the caller's op.Key, the string a decoder made) that the record's
// copy makes redundant.
func (e *PerObject) shareKey(id uint32) {
	if m, ok := e.ix.recs[id].x.(*lattice.Map); ok {
		m.ShareKey(e.ix.keyOf(id))
	}
}

// mutated marks the object id, whose state may just have changed, stale.
func (e *PerObject) mutated(id uint32) {
	w, bit := int(id>>6), uint64(1)<<(id&63)
	for w >= len(e.stale) {
		e.stale = append(e.stale, 0)
	}
	if e.stale[w]&bit == 0 {
		e.stale[w] |= bit
		e.nStale++
	}
}

// batcher is the keyspace's adapter to messages: it turns the δ-groups of
// Sync (group, bound once as emit) and the replies of Deliver (put) into
// one BatchMsg per destination.
type batcher struct {
	neighbors []string
	pending   map[string][]ObjectMsg
	order     []string
	emit      Emit
}

func (b *batcher) group(key string, to int, d lattice.State, seqs []uint64, retry bool) {
	b.put(b.neighbors[to], key, groupMsg(d, seqs, retry))
}

func (b *batcher) put(to, key string, m Msg) {
	items := b.pending[to]
	if len(items) == 0 {
		b.order = append(b.order, to)
	}
	b.pending[to] = append(items, ObjectMsg{Key: key, Inner: m})
}

// flush emits one BatchMsg per destination, rebuilding the accounting.
// Each batch takes its items slice with it. A send that re-enters the
// engine (a test harness delivering synchronously) may add and flush in
// the middle of this loop; it then finds the batches already sent empty
// and ships the rest itself.
func (b *batcher) flush(send Sender) {
	for i := 0; i < len(b.order); i++ {
		to := b.order[i]
		items := b.pending[to]
		b.pending[to] = nil
		if len(items) > 0 {
			send(to, batchOf(items))
		}
	}
	b.order = b.order[:0]
}

// batchOf builds a BatchMsg over items with the standard batch accounting:
// elements and payload bytes are summed from the inner messages, metadata
// is one 8-byte sequence number plus the object keys.
func batchOf(items []ObjectMsg) *BatchMsg {
	cost := metrics.Transmission{Messages: 1, MetadataBytes: 8}
	for _, it := range items {
		ic := it.Inner.Cost()
		cost.Elements += ic.Elements
		cost.PayloadBytes += ic.PayloadBytes
		cost.MetadataBytes += len(it.Key)
	}
	return &BatchMsg{Items: items, cost: cost}
}

// Sync implements Engine: Pass's tick, its δ-groups sent as one BatchMsg
// per neighbor.
func (e *PerObject) Sync(send Sender) {
	e.Pass(true, e.b.emit)
	e.b.flush(send)
}

// Pass runs a send pass and hands emit, which must not call back into the
// engine, each δ-group it makes, in key order. The tick, when tick is set,
// visits every object in bufs: it is the heartbeat, and the clock
// retransmissions are counted in. The other pass, which a store runs
// between two ticks as soon as a write has left something to ship, visits
// the queued objects alone: it emits what has never been sent, and
// allocates nothing when nothing new has been left since the last pass.
func (e *PerObject) Pass(tick bool, emit Emit) {
	ids := e.unsent
	if tick {
		if len(e.bufs) == 0 {
			return
		}
		ids = e.tickIDs[:0]
		for id := range e.bufs {
			ids = append(ids, id)
		}
		e.tickIDs = ids
	}
	if len(ids) == 0 {
		return
	}
	e.ix.sortByKey(ids)
	// Every pass dequeues each queued object, then queues again those it
	// leaves something to send at the next one. A tick ships everything a
	// flush would have, so it also dequeues the queued objects it does not
	// visit: those whose buffer a neighbor's δ-group or an acknowledgement
	// emptied after they were queued.
	for _, id := range e.unsent {
		e.ix.recs[id].flags &^= flagQueued
	}
	e.unsent = e.unsent[:0]
	for _, id := range ids {
		if e.visit(id, tick, emit) {
			e.queue(id)
		}
	}
}

// visit runs one send pass over the object id, and reports whether the
// pass left the object something to send at the next one — a forward
// still held is not, as no first-transmission pass sends it. The object
// stays in bufs only while its buffer still waits for a later pass.
func (e *PerObject) visit(id uint32, tick bool, emit Emit) bool {
	b := e.load(id)
	e.alg.ship(b, e.ix.keyOf(id), emit, tick)
	left := b.Unsent()
	e.file(id)
	return left
}

// Unsent reports whether a first-transmission pass has anything to emit.
func (e *PerObject) Unsent() bool { return len(e.unsent) > 0 }

// Holds reports whether a forward is held back (Config.PruneOnReceipt):
// a later pass makes it, unless its neighbor sends the entry here first.
func (e *PerObject) Holds() bool { return e.nHeld > 0 }

// EndHolds ends every hold on a forward toward the neighbor to, or toward
// every neighbor for the empty id, before its second tick does
// (Config.PruneOnReceipt): the next pass, of either kind, makes the
// forwards whose neighbor has not sent the entry back meanwhile. It
// reports whether there is one. The engine decides what a hold is and
// when one runs out; its owner, when to end the holds early — before its
// digests are compared, as a held forward may be what they differ by.
func (e *PerObject) EndHolds(to string) bool {
	if e.nHeld == 0 {
		return false
	}
	mask := ^uint64(0)
	if to != "" {
		i := slices.Index(e.alg.config().cfg.Neighbors, to)
		if i < 0 || i >= 64 {
			return false // never held
		}
		mask = 1 << i
	}
	ended := false
	// A buffer in bufs shares its entries with the copy the loop is
	// handed, which is all release changes.
	for id, b := range e.bufs {
		if e.ix.recs[id].flags&flagHeld == 0 {
			continue
		}
		if e.alg.release(&b, mask) {
			e.queue(id)
			ended = true
		}
		e.setHeld(id, b.Deferred())
	}
	return ended
}

// Waiting reports whether a later tick still has work here: something is
// buffered that a neighbor has not been sent or has not acknowledged. A
// keyspace that is not waiting may be skipped by Sync until the next
// LocalOp or Deliver.
func (e *PerObject) Waiting() bool { return len(e.bufs) > 0 }

// Retransmits returns how many times an entry of any object has been sent
// again.
func (e *PerObject) Retransmits() uint64 {
	resent, _ := e.alg.retransmits()
	return resent
}

// SpuriousRetransmits returns how many of those resends were not needed:
// the entry's first send arrived, as an acknowledgement of it showed once
// the resend had left (Eifel).
func (e *PerObject) SpuriousRetransmits() uint64 {
	_, spurious := e.alg.retransmits()
	return spurious
}

// ResendAfter has the acked engine wait waits[i] ticks, since an entry's
// last send, for the acknowledgement of the neighbor at position i before
// it sends the entry again; it waits for the longest of the neighbors the
// entry is still owed to, and doubles that for each send again
// (maxRetransmitGap). The engine keeps waits and reads it on every tick,
// so its owner changes the waits in place; without a call each is one
// tick. The plain engine sends nothing again.
func (e *PerObject) ResendAfter(waits []uint8) { e.alg.resendAfter(waits) }

func (e *PerObject) Deliver(from string, m Msg, send Sender) {
	bm, ok := m.(*BatchMsg)
	if !ok {
		return
	}
	// Replies (an acked engine's acknowledgements) are batched and sent
	// onwards.
	for _, it := range bm.Items {
		e.DeliverObject(from, []byte(it.Key), it.Inner, func(to string, m Msg) { e.b.put(to, it.Key, m) })
	}
	e.b.flush(send)
}

// DeliverObject implements ObjectDeliverer: one object's inbound message,
// handed to Receive or Ack as its parts (deliverMsg).
func (e *PerObject) DeliverObject(from string, key []byte, m Msg, send Sender) {
	deliverMsg(from, m, send,
		func(d lattice.State) { e.Receive(from, key, d) },
		func(seqs []uint64, retry bool) { e.Ack(from, string(key), seqs, retry) })
}

// Receive is Algorithm 1's receive side (lines 14–16) on the object key
// names: the δ-group d from the neighbor from. The key view is hashed and
// compared in place, so a redundant δ-group to an existing object
// allocates nothing here; the key is copied only when the object is new.
func (e *PerObject) Receive(from string, key []byte, d lattice.State) {
	id := obj(e, maphash.Bytes(keySeed, key), key)
	e.alg.receive(e.ix.recs[id].x, e.load(id), d, from)
	e.shareKey(id)
	e.mutated(id)
	e.touched(id)
}

// Ack hands the object key names from's acknowledgement of the entries
// seqs, which one δ-group carried with the retry note retry (Emit).
func (e *PerObject) Ack(from, key string, seqs []uint64, retry bool) {
	id := obj(e, maphash.String(keySeed, key), key)
	e.alg.ack(e.load(id), from, seqs, retry)
	e.touched(id)
}

func (e *PerObject) Memory() metrics.Memory {
	var total metrics.Memory
	for i := range e.ix.recs {
		r := &e.ix.recs[i]
		m := e.alg.memory(r.x, e.load(uint32(i)))
		e.cur = core.Buffer{}
		total.CRDTBytes += m.CRDTBytes + len(e.ix.key(r))
		total.BufferBytes += m.BufferBytes
		total.MetadataBytes += m.MetadataBytes
	}
	return total
}
