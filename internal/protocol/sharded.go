package protocol

import (
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
)

// ShardItem is one shard's protocol message inside a sharded frame.
type ShardItem struct {
	Shard uint32
	Msg   Msg
}

// ShardedMsg coalesces the per-shard messages a multi-object store sends
// to one neighbor in one synchronization tick into a single wire frame:
// instead of one TCP frame per shard (or worse, per object), the transport
// ships one frame carrying deltas for many keys across many shards. The
// shard index routes each inner message to the peer's matching shard, so
// both sides must run the same shard count.
//
// Digests, when non-nil, piggybacks the sender's per-shard digest vector
// (the anti-entropy advertisement otherwise carried by a standalone
// DigestMsg) onto the data frame, Scuttlebutt-style: a tick that ships
// data anyway advertises its digests for free instead of paying a second
// frame. The receiver processes the vector exactly as it would a DigestMsg
// advertisement.
type ShardedMsg struct {
	Items   []ShardItem
	Digests []uint64
	cost    metrics.Transmission
}

// Kind implements Msg.
func (m *ShardedMsg) Kind() string { return "sharded" }

// Cost implements Msg.
func (m *ShardedMsg) Cost() metrics.Transmission { return m.cost }

// NewShardedMsg builds a ShardedMsg, aggregating the inner accounting:
// one message on the wire, inner elements/payload summed, and 4 bytes of
// routing metadata per shard index.
func NewShardedMsg(items []ShardItem) *ShardedMsg {
	return NewShardedDigestMsg(items, nil)
}

// NewShardedDigestMsg builds a ShardedMsg carrying a piggybacked digest
// vector, charging the standard 8 bytes of metadata per digest word on top
// of the item accounting.
func NewShardedDigestMsg(items []ShardItem, digests []uint64) *ShardedMsg {
	cost := metrics.Transmission{Messages: 1, MetadataBytes: 8 * len(digests)}
	for _, it := range items {
		ic := it.Msg.Cost()
		cost.Elements += ic.Elements
		cost.PayloadBytes += ic.PayloadBytes
		cost.MetadataBytes += ic.MetadataBytes + 4
	}
	return &ShardedMsg{Items: items, Digests: digests, cost: cost}
}

// KeyedEngine is implemented by engines that replicate a keyspace of named
// objects (NewPerObject). It adds per-key access on top of Engine, letting
// callers read one object without materializing the aggregate state map.
type KeyedEngine interface {
	Engine
	// Keys returns the known object keys in sorted order. The slice is
	// the engine's own: valid until the next call that can create an
	// object, and not to be modified.
	Keys() []string
	// NumKeys returns len(Keys()) without putting them in order.
	NumKeys() int
	// ObjectState returns the state of one object, or nil if the key is
	// unknown. The state is shared, not cloned; callers must not mutate.
	ObjectState(key string) lattice.State
}

// ObjectDeliverer is implemented by keyed engines that accept one object's
// inbound message directly, without a BatchMsg wrapper. It is the receive
// path's counterpart to the incremental frame packer: a transport that
// unpacks a frame into per-object views hands each one straight to the
// engine — no ObjectMsg slice, no batch materialization, and (key being a
// byte view into the frame buffer) no key allocation when the object
// already exists. Replies go to send exactly as they would from Deliver;
// the caller wraps them for the wire. The key view is only read during
// the call — implementations copy it if the object is new.
type ObjectDeliverer interface {
	DeliverObject(from string, key []byte, m Msg, send Sender)
}
