package protocol

import (
	"hash/maphash"
	"math/bits"

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

// perObject synchronizes a keyspace of independent CRDT objects, each with
// its own instance of an inner protocol engine — the deployment model of
// the paper's Retwis evaluation (§V-C), where 30 000 objects each have
// their own δ-buffer and the per-object inflation check is what lets
// classic delta-based behave almost optimally at low contention.
type perObject struct {
	cfg     Config
	inner   Factory
	objType func(key string) workload.Datatype
	// ix is the key record table: every object's engine, key and flags,
	// by id. It is the only index there is.
	ix keyIndex
	// protos holds, per datatype name, the first object engine the inner
	// factory built for that type, if it can be forked: every further
	// object of the type is stamped out of it and shares its
	// configuration, instead of carrying a Config copy of its own.
	protos map[string]forker
	// active lists the objects the next Sync must visit: those touched by
	// LocalOp/Deliver since the last one, plus those whose engine is
	// still Waiting (unacknowledged entries that a tick may have to
	// send again) or, for an engine that is no Flusher, emitted on its
	// last visit (Scuttlebutt digests). Quiescent objects are skipped,
	// making Sync O(changed) instead of O(keyspace): the large-keyspace
	// win the Retwis evaluation relies on. flagActive is the membership;
	// the list may lag behind it — a Flush that leaves an object quiescent
	// clears the flag and the next Sync drops the id — so nActive is the
	// count. An id is listed at most once (flagListed).
	active  []uint32
	nActive int
	// unsent queues the objects (flagQueued) whose engine has something it
	// has never sent — what Flush walks, so a first-transmission pass never
	// visits the objects that only wait for an ack. Only Flusher engines
	// are queued; the rest ship on ticks alone.
	unsent []uint32
	// stale has bit id set when the object's state may have changed since
	// Rehash last visited it, nStale counts the bits. A bitmap rather than
	// one more id list: an engine whose owner never asks for a digest marks
	// every object once and never unmarks it, at one bit a key.
	stale  []uint64
	nStale int
	// b is the per-destination batcher, kept across calls like the lists:
	// a pass allocates the messages it emits and nothing else.
	b batcher
}

// forker is implemented by engines whose configuration is immutable and
// shareable: fork returns a new engine with a fresh bottom state over
// the same configuration, without copying it.
type forker interface {
	fork() Engine
}

var (
	_ KeyedEngine = (*perObject)(nil)
	_ Flusher     = (*perObject)(nil)
)

// NewPerObject wraps an inner protocol factory so that every distinct
// op.Key is replicated as an independent object; objType chooses the
// datatype of each object from its key. The inner factory is called once
// per datatype (identified by Datatype.Name), not once per key, when its
// engines can be forked.
func NewPerObject(inner Factory, objType func(key string) workload.Datatype) Factory {
	return func(cfg Config) Engine {
		e := &perObject{
			cfg:     cfg,
			inner:   inner,
			objType: objType,
			protos:  make(map[string]forker),
		}
		e.b.pending = make(map[string][]ObjectMsg, len(cfg.Neighbors))
		e.b.send = e.b.add
		return e
	}
}

func (e *perObject) ID() string { return e.cfg.ID }

// NumKeys implements KeyedEngine.
func (e *perObject) NumKeys() int { return len(e.ix.recs) }

// ObjectState implements KeyedEngine.
func (e *perObject) ObjectState(key string) lattice.State {
	id, ok := find(&e.ix, maphash.String(keySeed, key), key)
	if !ok {
		return nil
	}
	return e.ix.recs[id].eng.State()
}

// Scan implements KeyedEngine.
func (e *perObject) Scan(prefix string, fn func(key string, st lattice.State) bool) {
	for _, id := range e.ix.withPrefix(prefix) {
		r := &e.ix.recs[id]
		if !fn(e.ix.key(r), r.eng.State()) {
			return
		}
	}
}

// Stale implements KeyedEngine.
func (e *perObject) Stale() bool { return e.nStale > 0 }

// Rehash implements KeyedEngine.
func (e *perObject) Rehash(fn func(key string, st lattice.State, hash *uint64)) {
	if e.nStale == 0 {
		return
	}
	for w, word := range e.stale {
		for ; word != 0; word &= word - 1 {
			r := &e.ix.recs[w<<6|bits.TrailingZeros64(word)]
			fn(e.ix.key(r), r.eng.State(), &r.hash)
		}
		e.stale[w] = 0
	}
	e.nStale = 0
}

// Hashes implements KeyedEngine.
func (e *perObject) Hashes(fn func(key string, hash uint64)) {
	for i := range e.ix.recs {
		r := &e.ix.recs[i]
		fn(e.ix.key(r), r.hash)
	}
}

// State aggregates all object states into a map keyed by object key.
// Object states are shared, not cloned; callers must not mutate them.
func (e *perObject) State() lattice.State {
	m := lattice.NewMap()
	e.Scan("", func(key string, s lattice.State) bool {
		if !s.IsBottom() {
			m.Set(key, s)
		}
		return true
	})
	return m
}

// obj returns the id of one object, creating its record and engine if
// need be; h is the key's table hash. The key is only read: a new
// record copies it, and the copy is what objType is shown.
func obj[K string | []byte](e *perObject, h uint64, key K) uint32 {
	if id, ok := find(&e.ix, h, key); ok {
		return id
	}
	id := add(&e.ix, h, key)
	dt := e.objType(e.ix.keyOf(id))
	var eng Engine
	if proto, ok := e.protos[dt.Name()]; ok {
		eng = proto.fork()
	} else {
		cfg := e.cfg
		cfg.Datatype = dt
		eng = e.inner(cfg)
		if f, ok := eng.(forker); ok {
			e.protos[dt.Name()] = f
		}
	}
	e.ix.recs[id].eng = eng
	e.mutated(id) // a new key is a change, whatever created it
	return id
}

func (e *perObject) LocalOp(op workload.Op) {
	id := obj(e, maphash.String(keySeed, op.Key), op.Key)
	e.ix.recs[id].eng.LocalOp(op)
	e.mutated(id)
	e.touched(id)
}

// mutated marks the object id, whose state may just have changed, stale.
func (e *perObject) mutated(id uint32) {
	w, bit := int(id>>6), uint64(1)<<(id&63)
	for w >= len(e.stale) {
		e.stale = append(e.stale, 0)
	}
	if e.stale[w]&bit == 0 {
		e.stale[w] |= bit
		e.nStale++
	}
}

// touched records in the active set what a LocalOp or a Deliver just
// handed to the object id. A Flusher is queued for the next Flush when it
// holds something never sent, and otherwise stays as it was: an ack or a
// redundant δ-group gives a tick nothing new to do. Any other engine is
// activated for the next Sync, as ever.
func (e *perObject) touched(id uint32) {
	r := &e.ix.recs[id]
	if r.flags&flagQueued != 0 {
		return
	}
	if f, ok := r.eng.(Flusher); ok {
		if !f.Unsent() {
			return
		}
		r.flags |= flagQueued
		e.unsent = append(e.unsent, id)
	}
	if r.flags&flagActive == 0 {
		r.flags |= flagActive
		e.nActive++
		if r.flags&flagListed == 0 {
			r.flags |= flagListed
			e.active = append(e.active, id)
		}
	}
}

// batcher accumulates inner sends per destination and flushes them as
// BatchMsgs. key is the object being visited; send is add, bound once.
type batcher struct {
	key     string
	emitted bool // add ran since the caller last cleared it
	pending map[string][]ObjectMsg
	order   []string
	send    Sender
}

func (b *batcher) add(to string, m Msg) {
	b.emitted = true
	items := b.pending[to]
	if len(items) == 0 {
		b.order = append(b.order, to)
	}
	b.pending[to] = append(items, ObjectMsg{Key: b.key, Inner: m})
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
			send(to, BatchOf(items))
		}
	}
	b.order = b.order[:0]
	b.key = ""
}

// BatchOf builds a BatchMsg over items with the standard batch accounting:
// elements and payload bytes are summed from the inner messages, metadata
// is one 8-byte sequence number plus the object keys. Transports use it to
// (re)build batches — e.g. when splitting an oversized batch into several
// frames, each half needs its accounting recomputed.
func BatchOf(items []ObjectMsg) *BatchMsg {
	cost := metrics.Transmission{Messages: 1, MetadataBytes: 8}
	for _, it := range items {
		ic := it.Inner.Cost()
		cost.Elements += ic.Elements
		cost.PayloadBytes += ic.PayloadBytes
		cost.MetadataBytes += len(it.Key)
	}
	return &BatchMsg{Items: items, cost: cost}
}

// Sync implements Engine: one tick over every active object, in key
// order.
func (e *perObject) Sync(send Sender) {
	if e.nActive == 0 {
		return
	}
	ids := e.active[:0]
	for _, id := range e.active {
		if r := &e.ix.recs[id]; r.flags&flagActive != 0 {
			ids = append(ids, id)
		} else {
			r.flags &^= flagListed // a Flush left it quiescent
		}
	}
	e.active = ids
	e.ix.sortByKey(ids)
	for _, id := range ids {
		eng := e.ix.recs[id].eng
		e.b.key, e.b.emitted = e.ix.keyOf(id), false
		eng.Sync(e.b.send)
		// An engine that cannot say whether it waits is revisited for
		// as long as it has something to say.
		keep := e.b.emitted
		if f, ok := eng.(Flusher); ok {
			keep = f.Waiting()
		}
		e.settle(id, keep)
	}
	e.unsent = e.unsent[:0] // a tick ships everything a flush would have
	e.b.flush(send)
}

// Flush implements Flusher: the first-transmission pass over the queued
// objects, in key order. It finds nothing to do, and allocates nothing,
// when no LocalOp or Deliver has left anything new since the last pass.
func (e *perObject) Flush(send Sender) {
	if len(e.unsent) == 0 {
		return
	}
	e.ix.sortByKey(e.unsent)
	for _, id := range e.unsent {
		f := e.ix.recs[id].eng.(Flusher) // nothing else is ever queued
		e.b.key = e.ix.keyOf(id)
		f.Flush(e.b.send)
		e.settle(id, f.Waiting())
	}
	e.unsent = e.unsent[:0]
	e.b.flush(send)
}

// settle records a visited object as no longer queued: still active when
// a later tick has to keep visiting it, quiescent until the next LocalOp
// or Deliver touches it otherwise.
func (e *perObject) settle(id uint32, keep bool) {
	r := &e.ix.recs[id]
	r.flags &^= flagQueued
	if !keep {
		r.flags &^= flagActive
		e.nActive--
	}
}

// Unsent implements Flusher.
func (e *perObject) Unsent() bool { return len(e.unsent) > 0 }

// Waiting implements Flusher.
func (e *perObject) Waiting() bool { return e.nActive > 0 }

// Retransmits sums the re-sends the object engines have counted.
func (e *perObject) Retransmits() uint64 {
	var n uint64
	for _, proto := range e.protos {
		if r, ok := proto.(interface{ Retransmits() uint64 }); ok {
			n += r.Retransmits()
		}
	}
	return n
}

func (e *perObject) Deliver(from string, m Msg, send Sender) {
	bm, ok := m.(*BatchMsg)
	if !ok {
		return
	}
	for _, it := range bm.Items {
		e.b.key = it.Key
		e.DeliverObject(from, []byte(it.Key), it.Inner, e.b.send)
	}
	// Replies (e.g. Scuttlebutt pulls) are batched and sent onwards.
	e.b.flush(send)
}

var _ ObjectDeliverer = (*perObject)(nil)

// DeliverObject implements ObjectDeliverer: one object's inbound message,
// delivered without batch materialization. The key view is hashed and
// compared in place, so the steady state — an existing object that an ack
// or a redundant δ-group leaves with nothing new to send — allocates
// nothing here; the key is copied only when the object is new.
func (e *perObject) DeliverObject(from string, key []byte, m Msg, send Sender) {
	id := obj(e, maphash.Bytes(keySeed, key), key)
	e.ix.recs[id].eng.Deliver(from, m, send)
	// An acknowledgement retires buffer entries and leaves the state alone.
	if _, ack := m.(*AckMsg); !ack {
		e.mutated(id)
	}
	e.touched(id)
}

func (e *perObject) Memory() metrics.Memory {
	var total metrics.Memory
	for i := range e.ix.recs {
		r := &e.ix.recs[i]
		m := r.eng.Memory()
		total.CRDTBytes += m.CRDTBytes + len(e.ix.key(r))
		total.BufferBytes += m.BufferBytes
		total.MetadataBytes += m.MetadataBytes
	}
	return total
}
