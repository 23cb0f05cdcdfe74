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
// routing metadata (matching protocol.NewShardedMsg).
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

	body    []byte // concatenated encoded pieces of the pending frame
	cost    metrics.Transmission
	count   int
	withVec bool // pending frame carries vec
}

// frameCost returns the pending frame's full accounting: the accumulated
// item contributions, one wire message, and — when the digest vector rides
// along — 8 bytes of metadata per digest word.
func (p *framePacker) frameCost(withVec bool) metrics.Transmission {
	c := p.cost
	c.Messages = 1
	if withVec {
		c.MetadataBytes += 8 * len(p.vec)
	}
	return c
}

// tryAdd admits piece into the pending frame if the frame's exact encoded
// size stays within the cap. The digest vector is not considered here: it
// attaches to the flush's final frame (see packFrames), so a receiver has
// merged the whole tick before it compares digests — a vector on an early
// frame of a split tick would advertise state the remaining frames are
// still carrying and provoke spurious shard requests.
func (p *framePacker) tryAdd(piece []byte, c metrics.Transmission) bool {
	if codec.ShardedHeaderSize(nil, p.count+1)+len(p.body)+len(piece) > p.limit {
		return false
	}
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
	data := make([]byte, 0, codec.ShardedHeaderSize(dv, p.count)+len(p.body))
	data = codec.AppendShardedHeader(data, dv, p.count)
	data = append(data, p.body...)
	p.res.frames = append(p.res.frames, packedFrame{data: data, cost: p.frameCost(p.withVec), digests: p.withVec})
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
func packFrames(items []protocol.ShardItem, digests []uint64, limit int) (packResult, error) {
	p := &framePacker{limit: limit, vec: digests}
	var scratch []byte
	for _, it := range items {
		scratch = scratch[:0]
		var err error
		scratch, err = codec.AppendShardItem(scratch, it)
		if err != nil {
			return p.res, err
		}
		p.res.encodes++
		c := shardItemCost(it)
		if p.tryAdd(scratch, c) {
			continue
		}
		p.flush()
		if p.tryAdd(scratch, c) {
			continue
		}
		// Alone it exceeds the cap: split inside the shard's batch, or
		// drop an irreducible message.
		if bm, ok := it.Msg.(*protocol.BatchMsg); ok && len(bm.Items) > 1 {
			if err := p.packBatch(it.Shard, bm); err != nil {
				return p.res, err
			}
		} else {
			p.res.oversized++
		}
	}
	// The vector rides the final frame when it fits there.
	if p.vec != nil && p.count > 0 {
		if codec.ShardedHeaderSize(p.vec, p.count)+len(p.body) <= p.limit {
			p.withVec = true
		}
	}
	p.flush()
	return p.res, nil
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
		// NewShardedMsg would sum it: inner elements and payload, the
		// keys, one batch sequence number and one shard index.
		acc metrics.Transmission
	)
	size := func(count, bodyLen int) int {
		return codec.ShardedHeaderSize(nil, 1) +
			codec.SizeUvarint(uint64(shard)) +
			codec.BatchHeaderSize(count) + bodyLen
	}
	flush := func() {
		if count == 0 {
			return
		}
		data := make([]byte, 0, size(count, len(body)))
		data = codec.AppendShardedHeader(data, nil, 1)
		data = binary.AppendUvarint(data, uint64(shard))
		data = codec.AppendBatchHeader(data, count)
		data = append(data, body...)
		acc.Messages = 1
		acc.MetadataBytes += 8 + 4
		p.res.frames = append(p.res.frames, packedFrame{data: data, cost: acc})
		body = body[:0]
		count = 0
		acc = metrics.Transmission{}
	}
	for _, om := range bm.Items {
		scratch = scratch[:0]
		var err error
		scratch, err = codec.AppendObjectMsg(scratch, om)
		if err != nil {
			return err
		}
		p.res.encodes++
		if count > 0 && size(count+1, len(body)+len(scratch)) > p.limit {
			flush()
		}
		if size(count+1, len(body)+len(scratch)) > p.limit {
			p.res.oversized++ // alone in a frame it still exceeds the cap
			continue
		}
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
