package transport

import (
	"encoding/binary"

	"crdtsync/internal/codec"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
)

// The single-pass frame packer. One sync tick's shard items for one peer
// must go out as frames no larger than the configured cap; the packer
// encodes each item exactly once (and, when one shard's batch alone
// overflows a frame, each object message inside it exactly once) and
// greedily accumulates the encoded pieces into frames, so an oversized
// tick costs O(batch) encoding work. Its predecessor re-encoded the
// remaining batch at every binary-split level — O(batch · log frames) —
// which is exactly the kind of outbound-path waste the paper's
// cost-proportional-to-divergence argument forbids.
//
// Frame sizes are computed exactly, not estimated: codec exposes the
// header size for any (digest vector, item count) combination, so a
// candidate frame is admitted or flushed on its true encoded length.
//
// Transmission accounting never reaches the wire; the packer sums it per
// frame for the sender's own Stats().Sent.
//
// The packer is also where acknowledgement moves from the object to the
// link. An AckedDeltaMsg goes out as the plain δ-group; the frame that
// takes it gets a sequence number in its header, and the link records
// which entries the number stands for — per frame, split batches
// included, so that the unit acknowledged is the unit that can be lost.
// The acknowledgement the destination is owed rides the first frame.

// packedFrame is one ready-to-ship frame: the encoded ShardedMsg bytes
// plus the accounting the store records at enqueue time.
type packedFrame struct {
	data []byte
	cost metrics.Transmission
	// digests reports that this frame carries the piggybacked vector.
	digests bool
}

// packResult is everything one packFrames call produced.
type packResult struct {
	frames []packedFrame
	// oversized counts irreducible pieces dropped because even alone in a
	// frame they exceed the cap (a single object's message larger than
	// MaxFrameBytes); shipping them could never succeed.
	oversized int
	// encodes counts codec encoding calls performed: exactly one per
	// shard item, plus one per object message of each batch that had to
	// split. BenchmarkPack pins this as the no-re-encoding invariant.
	encodes int
	// digestsAttached reports that the digest vector rode one of the
	// frames; when false the caller falls back to a standalone heartbeat.
	digestsAttached bool
}

// shardItemCost is one item's contribution to its frame's accounting:
// the inner message's elements/payload/metadata plus 4 bytes of shard
// routing metadata (matching protocol.NewShardedLinkMsg).
func shardItemCost(it protocol.ShardItem) metrics.Transmission {
	ic := it.Msg.Cost()
	return metrics.Transmission{
		Elements:      ic.Elements,
		PayloadBytes:  ic.PayloadBytes,
		MetadataBytes: ic.MetadataBytes + 4,
	}
}

// framePacker accumulates encoded pieces into one pending frame.
type framePacker struct {
	limit int
	res   packResult
	vec   []uint64 // digest vector still waiting for a frame to ride
	lk    *link    // the destination's link; nil numbers nothing

	body    []byte // concatenated encoded pieces of the pending frame
	cost    metrics.Transmission
	count   int
	withVec bool // pending frame carries vec
	// link is the pending frame's link header: the acknowledgement the
	// destination is owed, until a frame has taken it, and a sequence
	// number from the first acked δ-group the frame admits. rec is what
	// that number stands for.
	link protocol.LinkHeader
	rec  []ackItem
	acks []ackItem // scratch: the acks of the item being placed
}

// numbered returns the pending frame's link header as it would be with
// acks among its δ-groups.
func (p *framePacker) numbered(acks []ackItem) protocol.LinkHeader {
	link := p.link
	if len(acks) > 0 && link.Seq.Seq == 0 {
		link.Seq = p.lk.next()
	}
	return link
}

// seal gives the pending frame's sequence number out, if it has one, and
// returns the header to write; the acknowledgement has then left.
func (p *framePacker) seal() protocol.LinkHeader {
	link := p.link
	if link.Seq.Seq != 0 {
		p.lk.commit(link.Seq, p.rec)
		p.rec = nil // the link's now
	}
	p.link = protocol.LinkHeader{}
	return link
}

// tryAdd admits piece, with the acks of the δ-groups in it, into the
// pending frame if the frame's exact encoded size stays within the cap.
// The digest vector is not considered here: it attaches to the flush's
// final frame (see packFrames), so a receiver has merged the whole tick
// before it compares digests — a vector on an early frame of a split tick
// would advertise state the remaining frames are still carrying and
// provoke spurious shard requests.
func (p *framePacker) tryAdd(piece []byte, c metrics.Transmission, acks []ackItem) bool {
	link := p.numbered(acks)
	if codec.ShardedHeaderSize(link, nil, p.count+1)+len(p.body)+len(piece) > p.limit {
		return false
	}
	p.link = link
	p.rec = append(p.rec, acks...)
	p.body = append(p.body, piece...)
	p.cost.Add(c)
	p.count++
	return true
}

// flush assembles the pending frame (if any) and resets the accumulator.
func (p *framePacker) flush() {
	if p.count == 0 {
		return
	}
	var dv []uint64
	if p.withVec {
		dv = p.vec
	}
	link := p.seal()
	data := make([]byte, 0, codec.ShardedHeaderSize(link, dv, p.count)+len(p.body))
	data = codec.AppendShardedHeader(data, link, dv, p.count)
	data = append(data, p.body...)
	c := p.cost
	c.Messages = 1
	c.MetadataBytes += 8*len(dv) + link.MetadataBytes()
	p.res.frames = append(p.res.frames, packedFrame{data: data, cost: c, digests: p.withVec})
	if p.withVec {
		p.res.digestsAttached = true
		p.vec = nil
	}
	p.body = p.body[:0]
	p.cost = metrics.Transmission{}
	p.count = 0
	p.withVec = false
}

// packFrames encodes items once each and packs them greedily into frames
// whose encoded ShardedMsg size never exceeds limit. digests, when
// non-nil, is piggybacked onto the flush's final frame when it has room —
// after every data piece, so the receiver's digest comparison sees the
// fully merged tick — and left unattached (for the caller's standalone
// heartbeat fallback, which likewise follows the data) when it does not.
// Items are emitted in order; an item whose encoding alone overflows an
// empty frame is split at the object level when it is a multi-object
// batch, and dropped (counted) when irreducible.
//
// lk is the destination's link, whose packMu the caller holds: frames
// that carry acked δ-groups are numbered on it and the first frame takes
// the acknowledgement it owes. With a nil link nothing is numbered.
func packFrames(items []protocol.ShardItem, digests []uint64, limit int, lk *link) (packResult, error) {
	p := &framePacker{limit: limit, vec: digests, lk: lk}
	if lk != nil {
		p.link.Ack, _ = lk.takeAck()
	}
	err := p.pack(items)
	if p.link.Ack.Inc != 0 {
		lk.owe() // no frame left to carry it
	}
	return p.res, err
}

func (p *framePacker) pack(items []protocol.ShardItem) error {
	var scratch []byte
	for _, it := range items {
		scratch = scratch[:0]
		var err error
		scratch, err = codec.AppendLinkShardItem(scratch, it)
		if err != nil {
			return err
		}
		p.res.encodes++
		c := shardItemCost(it)
		bm, isBatch := it.Msg.(*protocol.BatchMsg)
		acks := p.acks[:0]
		if p.lk != nil && isBatch {
			for i := range bm.Items {
				if a, ok := bm.Items[i].Inner.(*protocol.AckedDeltaMsg); ok {
					acks = append(acks, ackItem{shard: it.Shard, key: bm.Items[i].Key, seqs: a.Seqs})
				}
			}
			p.acks = acks
		}
		if p.tryAdd(scratch, c, acks) {
			continue
		}
		p.flush()
		if p.tryAdd(scratch, c, acks) {
			continue
		}
		// Alone it exceeds the cap: split inside the shard's batch, or
		// drop an irreducible message.
		if isBatch && len(bm.Items) > 1 {
			if err := p.packBatch(it.Shard, bm); err != nil {
				return err
			}
		} else {
			p.res.oversized++
		}
	}
	// The vector rides the final frame when it fits there.
	if p.vec != nil && p.count > 0 {
		if codec.ShardedHeaderSize(p.link, p.vec, p.count)+len(p.body) <= p.limit {
			p.withVec = true
		}
	}
	p.flush()
	return nil
}

// packBatch splits one shard's oversized batch across frames: each object
// message is encoded once and packed greedily into frames carrying a
// single shard item (a partial batch for the same shard). Called with the
// pending frame empty.
func (p *framePacker) packBatch(shard uint32, bm *protocol.BatchMsg) error {
	var (
		scratch []byte
		body    []byte
		count   int
		// acc is the partial batch's accounting, as protocol.BatchOf and
		// NewShardedLinkMsg would sum it: inner elements and payload, the
		// keys, one batch sequence number and one shard index.
		acc metrics.Transmission
	)
	size := func(link protocol.LinkHeader, count, bodyLen int) int {
		return codec.ShardedHeaderSize(link, nil, 1) +
			codec.SizeUvarint(uint64(shard)) +
			codec.BatchHeaderSize(count) + bodyLen
	}
	flush := func() {
		if count == 0 {
			return
		}
		link := p.seal()
		data := make([]byte, 0, size(link, count, len(body)))
		data = codec.AppendShardedHeader(data, link, nil, 1)
		data = binary.AppendUvarint(data, uint64(shard))
		data = codec.AppendBatchHeader(data, count)
		data = append(data, body...)
		acc.Messages = 1
		acc.MetadataBytes += 8 + 4 + link.MetadataBytes()
		p.res.frames = append(p.res.frames, packedFrame{data: data, cost: acc})
		body = body[:0]
		count = 0
		acc = metrics.Transmission{}
	}
	for _, om := range bm.Items {
		scratch = scratch[:0]
		var err error
		scratch, err = codec.AppendLinkObjectMsg(scratch, om)
		if err != nil {
			return err
		}
		p.res.encodes++
		acks := p.acks[:0]
		if a, ok := om.Inner.(*protocol.AckedDeltaMsg); ok && p.lk != nil {
			acks = append(acks, ackItem{shard: shard, key: om.Key, seqs: a.Seqs})
			p.acks = acks
		}
		link := p.numbered(acks)
		if count > 0 && size(link, count+1, len(body)+len(scratch)) > p.limit {
			flush()
			link = p.numbered(acks)
		}
		if size(link, count+1, len(body)+len(scratch)) > p.limit {
			p.res.oversized++ // alone in a frame it still exceeds the cap
			continue
		}
		p.link = link
		p.rec = append(p.rec, acks...)
		ic := om.Inner.Cost()
		acc.Elements += ic.Elements
		acc.PayloadBytes += ic.PayloadBytes
		acc.MetadataBytes += len(om.Key)
		body = append(body, scratch...)
		count++
	}
	flush()
	return nil
}
