package protocol

import (
	"slices"

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
	objects map[string]Engine
	// protos holds, per datatype name, the first object engine the inner
	// factory built for that type, if it can be forked: every further
	// object of the type is stamped out of it and shares its
	// configuration, instead of carrying a Config copy of its own.
	protos map[string]forker
	// keys lists the known keys in ascending order, as Keys returns them;
	// fresh holds, unordered, the keys created since Keys last ran.
	// objects is the only index a write consults: a new key costs an
	// append here, and the order is restored where it is consumed.
	keys, fresh []string
	// active holds the keys the next Sync must visit: keys touched by
	// LocalOp/Deliver since the last one, plus keys whose engine is
	// still Waiting (unacknowledged entries that a tick may have to
	// send again) or, for an engine that is no Flusher, emitted on its
	// last visit (Scuttlebutt digests). Quiescent keys are skipped,
	// making Sync O(changed) instead of O(keyspace): the large-keyspace
	// win the Retwis evaluation relies on. The value says whether the
	// key is also queued in unsent.
	active map[string]bool
	// unsent queues the keys whose engine has something it has never
	// sent — what Flush walks, so a first-transmission pass never
	// visits the objects that only wait for an ack. Only Flusher
	// engines are queued; the rest ship on ticks alone.
	unsent []string
	// scratch is Sync's sorted copy of active and b the per-destination
	// batcher, both kept across calls: a pass allocates the messages it
	// emits and nothing else.
	scratch []string
	b       batcher
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
			objects: make(map[string]Engine),
			protos:  make(map[string]forker),
			active:  make(map[string]bool),
		}
		e.b.pending = make(map[string][]ObjectMsg, len(cfg.Neighbors))
		e.b.send = e.b.add
		return e
	}
}

func (e *perObject) ID() string { return e.cfg.ID }

// Keys implements KeyedEngine. Keys created since the last call are
// sorted and merged in here, from the back, in one pass.
func (e *perObject) Keys() []string {
	if len(e.fresh) == 0 {
		return e.keys
	}
	slices.Sort(e.fresh)
	i, j := len(e.keys)-1, len(e.fresh)-1
	e.keys = slices.Grow(e.keys, len(e.fresh))[:len(e.keys)+len(e.fresh)]
	for k := len(e.keys) - 1; j >= 0; k-- {
		if i >= 0 && e.keys[i] > e.fresh[j] {
			e.keys[k] = e.keys[i]
			i--
		} else {
			e.keys[k] = e.fresh[j]
			j--
		}
	}
	e.fresh = nil
	return e.keys
}

// NumKeys implements KeyedEngine.
func (e *perObject) NumKeys() int { return len(e.objects) }

// ObjectState implements KeyedEngine.
func (e *perObject) ObjectState(key string) lattice.State {
	eng, ok := e.objects[key]
	if !ok {
		return nil
	}
	return eng.State()
}

// State aggregates all object states into a map keyed by object key.
// Object states are shared, not cloned; callers must not mutate them.
func (e *perObject) State() lattice.State {
	m := lattice.NewMap()
	for _, key := range e.Keys() {
		if s := e.objects[key].State(); !s.IsBottom() {
			m.Set(key, s)
		}
	}
	return m
}

// obj returns (creating if needed) the engine of one object.
func (e *perObject) obj(key string) Engine {
	if eng, ok := e.objects[key]; ok {
		return eng
	}
	dt := e.objType(key)
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
	e.objects[key] = eng
	e.fresh = append(e.fresh, key)
	return eng
}

func (e *perObject) LocalOp(op workload.Op) {
	eng := e.obj(op.Key)
	eng.LocalOp(op)
	if queued, known := e.active[op.Key]; !queued {
		if queue, activate := touched(eng, known); queue {
			e.queue(op.Key)
		} else if activate {
			e.active[op.Key] = false
		}
	}
}

// touched says what a LocalOp or a Deliver just handed to eng, an engine
// not yet queued, asks of the active set. A Flusher is queued for the
// next Flush when it holds something never sent, and otherwise stays as
// it was: an ack or a redundant δ-group gives a tick nothing new to do.
// Any other engine is activated for the next Sync, as ever; known says
// whether it is active already.
func touched(eng Engine, known bool) (queue, activate bool) {
	if f, ok := eng.(Flusher); ok {
		return f.Unsent(), false
	}
	return false, !known
}

// queue marks key active and due for the next Flush.
func (e *perObject) queue(key string) {
	e.active[key] = true
	e.unsent = append(e.unsent, key)
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
	if len(e.active) == 0 {
		return
	}
	keys := e.scratch[:0]
	for k := range e.active {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, key := range keys {
		eng := e.objects[key]
		e.b.key, e.b.emitted = key, false
		eng.Sync(e.b.send)
		// An engine that cannot say whether it waits is revisited for
		// as long as it has something to say.
		keep := e.b.emitted
		if f, ok := eng.(Flusher); ok {
			keep = f.Waiting()
		}
		e.settle(key, keep)
	}
	clear(keys)
	e.scratch = keys[:0]
	clear(e.unsent) // a tick ships everything a flush would have
	e.unsent = e.unsent[:0]
	e.b.flush(send)
}

// Flush implements Flusher: the first-transmission pass over the queued
// objects, in key order. It finds nothing to do, and allocates nothing,
// when no LocalOp or Deliver has left anything new since the last pass.
func (e *perObject) Flush(send Sender) {
	if len(e.unsent) == 0 {
		return
	}
	slices.Sort(e.unsent)
	for _, key := range e.unsent {
		f := e.objects[key].(Flusher) // nothing else is ever queued
		e.b.key = key
		f.Flush(e.b.send)
		e.settle(key, f.Waiting())
	}
	clear(e.unsent)
	e.unsent = e.unsent[:0]
	e.b.flush(send)
}

// settle records a visited object as no longer queued: still active when
// a later tick has to keep visiting it, quiescent until the next LocalOp
// or Deliver touches it otherwise.
func (e *perObject) settle(key string, keep bool) {
	if keep {
		e.active[key] = false
	} else {
		delete(e.active, key)
	}
}

// Unsent implements Flusher.
func (e *perObject) Unsent() bool { return len(e.unsent) > 0 }

// Waiting implements Flusher.
func (e *perObject) Waiting() bool { return len(e.active) > 0 }

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
// delivered without batch materialization. The map lookups convert the key
// view in place (the compiler elides the allocation for m[string(b)]), so
// the steady state — an existing object that an ack or a redundant
// δ-group leaves with nothing new to send — allocates nothing here; the
// key is materialized only when the object is new or is queued.
func (e *perObject) DeliverObject(from string, key []byte, m Msg, send Sender) {
	eng, ok := e.objects[string(key)]
	if !ok {
		eng = e.obj(string(key))
	}
	eng.Deliver(from, m, send)
	if queued, known := e.active[string(key)]; !queued {
		if queue, activate := touched(eng, known); queue {
			e.queue(string(key))
		} else if activate {
			e.active[string(key)] = false
		}
	}
}

func (e *perObject) Memory() metrics.Memory {
	var total metrics.Memory
	for key, eng := range e.objects {
		m := eng.Memory()
		total.CRDTBytes += m.CRDTBytes + len(key)
		total.BufferBytes += m.BufferBytes
		total.MetadataBytes += m.MetadataBytes
	}
	return total
}
