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
//
// Link carries the acknowledgement state of the link the frame travels:
// its own sequence number when it holds δ-groups that want an ack, and
// the sender's acknowledgement of what it has received the other way.
type ShardedMsg struct {
	Items   []ShardItem
	Digests []uint64
	Link    LinkHeader
	cost    metrics.Transmission
}

// Kind implements Msg.
func (m *ShardedMsg) Kind() string { return "sharded" }

// Cost implements Msg.
func (m *ShardedMsg) Cost() metrics.Transmission { return m.cost }

// LinkHeader is what a sharded frame says about the link between its
// sender and its receiver. Acknowledgement is per neighbor, one sequence
// number per frame, as in the δ-buffer anti-entropy of delta-state CRDTs
// and the lossy-channel variant the paper sketches in §IV: the frame is
// the unit that is lost, so the frame is the unit that is acknowledged.
// The sequence half is absent when its Seq is zero, the acknowledgement
// half when its incarnation is; a frame with both absent is a plain
// sharded frame.
type LinkHeader struct {
	Seq FrameSeq
	Ack FrameAck
}

// FrameSeq numbers a frame that carries δ-groups its sender will send
// again until the receiver acknowledges the frame.
type FrameSeq struct {
	// Inc is the sender's incarnation, fixed for the life of a store and
	// never zero: a restarted store numbers its frames from 1 again, and
	// the incarnation is how a receiver tells the two sequences apart. It
	// is not on the wire: every frame on a connection is of the life the
	// connection's HelloMsg named, so the receiver fills it in from there,
	// per connection (a restarted sender's old and new connections can
	// overlap). Encoders ignore it and decoders leave it zero.
	Inc uint32
	// Seq counts the numbered frames the sender has sent this receiver,
	// from 1.
	Seq uint64
	// Back is Seq minus the oldest sequence number the sender still waits
	// on, always below Seq. A lost frame's entries are sent again under a
	// new number, so its own number never arrives; Back is how the sender
	// says that everything below Seq-Back is settled — acknowledged, or
	// not waited for any more — and the receiver's cumulative mark may
	// move past it.
	Back uint64
}

// FrameAck acknowledges numbered frames received from the frame's
// destination: every one up to Cum, and those in Ranges above it.
type FrameAck struct {
	// Inc is the incarnation of the store whose frames are acknowledged,
	// as its hello named it: an acknowledgement minted for one life of a
	// store retires nothing in the next. Unlike FrameSeq.Inc it is on the
	// wire: the acknowledgement travels on the acknowledging store's own
	// connection, whose hello vouches for the acknowledger's life, and its
	// queue can outlive a restart of the store it acknowledges.
	Inc uint32
	// Cum is the highest sequence number below which nothing is missing.
	Cum uint64
	// Ranges lists what arrived above a gap, ascending and disjoint, each
	// starting at least two above the mark before it: one lost or
	// reordered frame holds back only its own acknowledgement. At most
	// MaxAckRanges of them.
	Ranges []SeqRange
}

// MaxAckRanges bounds the ranges of one FrameAck. A receiver with more
// gaps than that forgets the lowest range — those frames go
// unacknowledged and their entries arrive again — and a decoder refuses
// an acknowledgement that claims more.
const MaxAckRanges = 8

// SeqRange is the closed interval [Lo, Hi] of frame sequence numbers.
type SeqRange struct{ Lo, Hi uint64 }

// MetadataBytes is the header's share of a frame's accounting: 8 bytes
// per sequence number and 4 for the acknowledgement's incarnation, the
// sizes the rest of the accounting uses. The sender's own incarnation is
// the hello's (HelloMsg), not the frame's.
func (h LinkHeader) MetadataBytes() int {
	n := 0
	if h.Seq.Seq != 0 {
		n += 8 + 8
	}
	if h.Ack.Inc != 0 {
		n += 4 + 8 + 16*len(h.Ack.Ranges)
	}
	return n
}

// NewShardedMsg builds a ShardedMsg, aggregating the inner accounting:
// one message on the wire, inner elements/payload summed, and 4 bytes of
// routing metadata per shard index.
func NewShardedMsg(items []ShardItem) *ShardedMsg {
	return NewShardedLinkMsg(items, nil, LinkHeader{})
}

// NewShardedDigestMsg builds a ShardedMsg carrying a piggybacked digest
// vector, charging the standard 8 bytes of metadata per digest word on top
// of the item accounting.
func NewShardedDigestMsg(items []ShardItem, digests []uint64) *ShardedMsg {
	return NewShardedLinkMsg(items, digests, LinkHeader{})
}

// NewShardedLinkMsg builds a ShardedMsg with a link header, whose
// sequence numbers and incarnations are metadata like the digest words.
// What is acknowledged per frame is not acknowledged per δ-group: a
// batch's AckedDeltaMsg goes out as the plain δ-group (see
// codec.AppendLinkShardItem), and a batch's accounting (BatchOf) never
// counted its entry seqs.
func NewShardedLinkMsg(items []ShardItem, digests []uint64, link LinkHeader) *ShardedMsg {
	cost := metrics.Transmission{Messages: 1, MetadataBytes: 8*len(digests) + link.MetadataBytes()}
	for _, it := range items {
		ic := it.Msg.Cost()
		cost.Elements += ic.Elements
		cost.PayloadBytes += ic.PayloadBytes
		cost.MetadataBytes += ic.MetadataBytes + 4
	}
	return &ShardedMsg{Items: items, Digests: digests, Link: link, cost: cost}
}

// KeyedEngine is implemented by engines that replicate a keyspace of named
// objects (NewPerObject). It adds per-key access on top of Engine, letting
// callers read one object without materializing the aggregate state map.
type KeyedEngine interface {
	Engine
	// NumKeys returns the number of known objects.
	NumKeys() int
	// ObjectState returns the state of one object, or nil if the key is
	// unknown. The state is shared, not cloned; callers must not mutate.
	ObjectState(key string) lattice.State
	// Scan visits, in ascending key order, the objects whose key starts
	// with prefix — every object, for the empty prefix — until fn returns
	// false. States are shared as ObjectState's are, and an object's state
	// is the same lattice.State for as long as the engine lives: every
	// change merges into it in place. fn must not call back into the
	// engine.
	Scan(prefix string, fn func(key string, st lattice.State) bool)
	// Rehash visits, in no particular order, each object that a LocalOp,
	// a Deliver or a restore has touched since the last call, once. hash
	// is a word the engine keeps per object for its owner and never reads:
	// zero in a new object, thereafter whatever fn last left there. A store
	// keeps each object's content hash in it, so that a digest costs what
	// changed — this package cannot hash a state (the codec imports it).
	Rehash(fn func(key string, st lattice.State, hash *uint64))
	// Stale reports whether Rehash has anything to visit.
	Stale() bool
	// Hashes visits every object's key and hash word, in no particular
	// order.
	Hashes(fn func(key string, hash uint64))
}

// ObjectDeliverer is implemented by keyed engines that accept one object's
// inbound message directly, without a BatchMsg wrapper. It is the receive
// path's counterpart to the incremental frame packer: a transport that
// unpacks a frame into per-object views hands each one straight to the
// engine — no ObjectMsg slice, no batch materialization, and (key being a
// byte view into the frame buffer) no key allocation when the object
// already exists. Replies go to send exactly as they would from Deliver;
// the caller wraps them for the wire, and send must not call back into the
// engine. The key view is only read during the call — implementations copy
// it if the object is new.
type ObjectDeliverer interface {
	DeliverObject(from string, key []byte, m Msg, send Sender)
}
