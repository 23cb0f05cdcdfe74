package protocol

import (
	"slices"
	"sort"

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
	// active holds keys that must be visited on the next Sync: keys
	// touched by LocalOp/Deliver since the last one, plus keys whose
	// engine emitted a message last round (it may need to emit again,
	// e.g. unacked retransmissions or Scuttlebutt digests). Quiescent
	// keys are skipped, making Sync O(changed) instead of O(keyspace):
	// the large-keyspace win the Retwis evaluation relies on.
	active map[string]struct{}
}

// forker is implemented by engines whose configuration is immutable and
// shareable: fork returns a new engine with a fresh bottom state over
// the same configuration, without copying it.
type forker interface {
	fork() Engine
}

var _ KeyedEngine = (*perObject)(nil)

// NewPerObject wraps an inner protocol factory so that every distinct
// op.Key is replicated as an independent object; objType chooses the
// datatype of each object from its key. The inner factory is called once
// per datatype (identified by Datatype.Name), not once per key, when its
// engines can be forked.
func NewPerObject(inner Factory, objType func(key string) workload.Datatype) Factory {
	return func(cfg Config) Engine {
		return &perObject{
			cfg:     cfg,
			inner:   inner,
			objType: objType,
			objects: make(map[string]Engine),
			protos:  make(map[string]forker),
			active:  make(map[string]struct{}),
		}
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
	e.obj(op.Key).LocalOp(op)
	e.active[op.Key] = struct{}{}
}

// batcher accumulates inner sends per destination and flushes them as
// BatchMsgs.
type batcher struct {
	pending map[string][]ObjectMsg
	order   []string
}

func newBatcher() *batcher {
	return &batcher{pending: make(map[string][]ObjectMsg)}
}

func (b *batcher) sender(key string) Sender {
	return func(to string, m Msg) {
		if _, ok := b.pending[to]; !ok {
			b.order = append(b.order, to)
		}
		b.pending[to] = append(b.pending[to], ObjectMsg{Key: key, Inner: m})
	}
}

// flush emits one BatchMsg per destination, rebuilding the accounting.
func (b *batcher) flush(send Sender) {
	for _, to := range b.order {
		send(to, BatchOf(b.pending[to]))
	}
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

func (e *perObject) Sync(send Sender) {
	if len(e.active) == 0 {
		return
	}
	keys := make([]string, 0, len(e.active))
	for k := range e.active {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := newBatcher()
	for _, key := range keys {
		inner := b.sender(key)
		emitted := false
		e.objects[key].Sync(func(to string, m Msg) {
			emitted = true
			inner(to, m)
		})
		if !emitted {
			// The object had nothing to say and goes quiescent until
			// the next LocalOp or Deliver touches it.
			delete(e.active, key)
		}
	}
	b.flush(send)
}

func (e *perObject) Deliver(from string, m Msg, send Sender) {
	bm, ok := m.(*BatchMsg)
	if !ok {
		return
	}
	b := newBatcher()
	for _, it := range bm.Items {
		e.obj(it.Key).Deliver(from, it.Inner, b.sender(it.Key))
		e.active[it.Key] = struct{}{}
	}
	// Replies (e.g. Scuttlebutt pulls) are batched and sent onwards.
	b.flush(send)
}

var _ ObjectDeliverer = (*perObject)(nil)

// DeliverObject implements ObjectDeliverer: one object's inbound message,
// delivered without batch materialization. The map lookups convert the key
// view in place (the compiler elides the allocation for m[string(b)]), so
// the steady state — an existing, already-active object — allocates
// nothing here; the key is materialized only when the object is new or
// transitions back to active.
func (e *perObject) DeliverObject(from string, key []byte, m Msg, send Sender) {
	eng, ok := e.objects[string(key)]
	if !ok {
		eng = e.obj(string(key))
	}
	eng.Deliver(from, m, send)
	if _, ok := e.active[string(key)]; !ok {
		e.active[string(key)] = struct{}{}
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
