package protocol

import "crdtsync/internal/metrics"

// ShardItem is one shard's protocol message: inside a sharded frame a bare
// item, such as the TreeMsg that closes a drill.
type ShardItem struct {
	Shard uint32
	Msg   Msg
}

// A sharded frame is what a store sends one neighbor in one pass: a single
// wire frame carrying the δ-groups of many keys across many shards. It has
// no message type: the packer writes it from its parts
// (codec.AppendShardedHeader) and the receiver reads it into a view
// (codec.UnpackFrame). Its keyed items, the δ-groups a pass emits (Emit),
// are one run in strictly ascending key order, which the receiver routes
// by key (ShardOf); its
// bare items, a drill's closing TreeMsg among them, name a shard index, so
// both ends must run the same shard count. Its header may piggyback the
// sender's digest vector, Scuttlebutt-style, and carries a LinkHeader.

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

// BareCost is one bare item's share of its frame's accounting: the inner
// message's, plus 4 bytes of shard index.
func BareCost(it ShardItem) metrics.Transmission {
	ic := it.Msg.Cost()
	ic.Messages = 0
	ic.MetadataBytes += 4
	return ic
}

// ObjectDeliverer is a keyed engine's receive side behind messages: one
// object's DeltaMsg, AckedDeltaMsg or acknowledgement, handed to the engine
// as the δ-group or the entry seqs it holds (PerObject.Receive,
// PerObject.Ack), and the acknowledgement an AckedDeltaMsg is owed handed
// to send, which must not call back into the engine. A store has no
// messages to unwrap: it receives the δ-groups and acknowledgements its
// frames hold directly. The benchmark's replay (bench/replay.go) delivers
// tapped items through this adapter. The key view is only read during the
// call — implementations copy it if the object is new.
type ObjectDeliverer interface {
	DeliverObject(from string, key []byte, m Msg, send Sender)
}
