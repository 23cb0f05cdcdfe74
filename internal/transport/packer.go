package transport

import (
	"crdtsync/internal/codec"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
)

// The single-pass frame packer. One pass's shard items for one peer must go
// out as frames no larger than the configured cap. Since wire version 5 a
// frame writes all of its keyed items as one run in ascending key order,
// with no shard index: the packer gathers the destination's per-shard
// batches into one key-ordered run (protocol.KeyedRun) and packs it
// greedily, each item encoded once against the key before it and, since
// wire version 6, against the replica names the frame's run has spelled
// (codec.Names). The item that opens a frame's run is written whole, its
// key and its names, so the one a split moves to the next frame is encoded
// once more; the bare items (a drill's close) follow the whole run, in the last
// frames, so that a close never arrives before the states it goes with. A
// pass therefore costs one sort of its keyed items and O(items) encoding
// work, however many frames it fills.
//
// Frame sizes are computed exactly, not estimated: codec exposes the
// header size for any (digest vector, item counts) combination, so a
// candidate frame is admitted or flushed on its true encoded length.
//
// Transmission accounting never reaches the wire; the packer sums it per
// frame for the sender's own Stats().Sent.
//
// The packer is also where acknowledgement moves from the object to the
// link. An AckedDeltaMsg goes out as the plain δ-group; the frame that
// takes it gets a sequence number in its header, and the link records
// which entries the number stands for — per frame, so that the unit
// acknowledged is the unit that can be lost. The acknowledgement the
// destination is owed rides the first frame, once it has been held long
// enough (ackHoldsPerTick).

// packedFrame is one ready-to-ship frame: the encoded sharded frame's bytes
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
	// StoreConfig.maxFrame); shipping them could never succeed.
	oversized int
	// encodes counts codec encoding calls performed: one per keyed item,
	// one per bare item, plus one per split boundary — the keyed item that
	// opens the next frame, written again with its key whole. BenchmarkPack
	// pins this as the no-re-encoding invariant.
	encodes int
	// digestsAttached reports that the digest vector rode one of the
	// frames; when false the caller falls back to a standalone heartbeat.
	digestsAttached bool
}

// framePacker accumulates encoded pieces into one pending frame.
type framePacker struct {
	limit  int
	shards int // the sender's, among which an acked item's record is routed
	res    packResult
	vec    []uint64 // digest vector still waiting for a frame to ride
	lk     *link    // the destination's link; nil numbers nothing
	now    int64    // when the frames leave, on the store's clock

	// The pending frame: its run and then its bare items, encoded (all the
	// keyed items are placed before the first bare one), how many of each,
	// the key its run ends with, which the next keyed item is written
	// against, and the replica names its run has spelled.
	body        []byte
	nRun, nBare int
	prev        string
	names       codec.Names
	cost        metrics.Transmission
	withVec     bool // pending frame carries vec
	scratch     []byte
	acks        []ackItem // scratch: the acks of the item being placed
	// link is the pending frame's link header: the acknowledgement the
	// destination is owed, until a frame has taken it, and a sequence
	// number from the first acked δ-group the frame admits. rec is what
	// that number stands for.
	link protocol.LinkHeader
	rec  []ackItem
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
		p.lk.commit(link.Seq, p.rec, p.now)
		p.rec = nil // the link's now
	}
	p.link = protocol.LinkHeader{}
	return link
}

// size returns the pending frame's exact encoded size with a vector of
// digests, under link, with keyed more keyed items and bare more bare ones
// that take extra bytes.
func (p *framePacker) size(link protocol.LinkHeader, digests []uint64, keyed, bare, extra int) int {
	return codec.ShardedHeaderSize(link, digests, p.nRun+keyed, p.nBare+bare) + len(p.body) + extra
}

// tryAdd admits the piece in p.scratch — one keyed item when keyed is set,
// else one bare item — with the acks of the δ-groups in it, into the
// pending frame if the frame's exact encoded size stays within the cap.
// The digest vector is not considered here: it attaches to the flush's
// final frame (see packFrames), so a receiver has merged the whole tick
// before it compares digests — a vector on an early frame of a split tick
// would advertise state the remaining frames are still carrying and
// provoke spurious shard requests.
func (p *framePacker) tryAdd(keyed bool, c metrics.Transmission, acks []ackItem) bool {
	link := p.numbered(acks)
	k, b := 0, 1
	if keyed {
		k, b = 1, 0
	}
	if p.size(link, nil, k, b, len(p.scratch)) > p.limit {
		return false
	}
	p.link = link
	p.rec = append(p.rec, acks...)
	p.body = append(p.body, p.scratch...)
	p.nRun += k
	p.nBare += b
	p.cost.Add(c)
	return true
}

// flush assembles the pending frame (if any) and resets the accumulator.
func (p *framePacker) flush() {
	if p.nRun+p.nBare == 0 {
		return
	}
	var dv []uint64
	if p.withVec {
		dv = p.vec
	}
	link := p.seal()
	data := make([]byte, 0, codec.ShardedHeaderSize(link, dv, p.nRun, p.nBare)+len(p.body))
	data = codec.AppendShardedHeader(data, link, dv, p.nRun, p.nBare)
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
	p.nRun, p.nBare = 0, 0
	p.names.Truncate(0)
	p.cost = metrics.Transmission{}
	p.withVec = false
}

// packFrames encodes items once each and packs them greedily into frames
// whose encoded size never exceeds limit: the keyed items of
// their batches as one key-ordered run (protocol.KeyedRun), then the other
// items, bare, in order. digests, when non-nil, is piggybacked onto the flush's
// final frame when it has room — after every data piece, so the receiver's
// digest comparison sees the fully merged tick — and left unattached (for
// the caller's standalone heartbeat fallback, which likewise follows the
// data) when it does not. A piece whose encoding alone overflows an empty
// frame is dropped (counted).
//
// lk is the destination's link: frames that carry acked δ-groups are
// numbered on it, sent at now, and the first frame takes the
// acknowledgement it owes if that has been owed for hold; the record of an
// acked δ-group names the shard its key routes to among shards. With a nil
// link nothing is numbered.
func packFrames(items []protocol.ShardItem, digests []uint64, limit, shards int, lk *link, now, hold int64) (packResult, error) {
	p := &framePacker{limit: limit, shards: shards, vec: digests, lk: lk, now: now}
	if lk != nil {
		p.link.Ack, _ = lk.takeAck(now, hold)
	}
	err := p.pack(items)
	if p.link.Ack.Inc != 0 {
		lk.owe() // no frame left to carry it
	}
	return p.res, err
}

func (p *framePacker) pack(items []protocol.ShardItem) error {
	for _, om := range protocol.KeyedRun(items) {
		if err := p.addKeyed(om); err != nil {
			return err
		}
	}
	for _, it := range items {
		if _, keyed := it.Msg.(*protocol.BatchMsg); keyed {
			continue
		}
		if err := p.addBare(it); err != nil {
			return err
		}
	}
	// The vector rides the final frame when it fits there.
	if p.vec != nil && p.nRun+p.nBare > 0 && p.size(p.link, p.vec, 0, 0, 0) <= p.limit {
		p.withVec = true
	}
	p.flush()
	return nil
}

// encodeKeyed writes om into p.scratch against the pending run's last key.
func (p *framePacker) encodeKeyed(om protocol.ObjectMsg) error {
	var prev *string
	if p.nRun > 0 {
		prev = &p.prev
	}
	var err error
	p.scratch, err = codec.AppendLinkObjectMsg(p.scratch[:0], prev, om, &p.names)
	p.res.encodes++
	return err
}

// addKeyed places one keyed item: in the pending frame, or as the first of
// the next — written again, whole, if it was written against a key and
// names the frame it opens does not have. An item that leaves a frame
// takes back the names it spelled there.
func (p *framePacker) addKeyed(om protocol.ObjectMsg) error {
	acks := p.acks[:0]
	if a, ok := om.Inner.(*protocol.AckedDeltaMsg); ok && p.lk != nil {
		acks = append(acks, ackItem{shard: protocol.ShardOf(om.Key, p.shards), key: om.Key, seqs: a.Seqs, retry: a.Retry})
		p.acks = acks
	}
	c := protocol.KeyedCost(om)
	mark := p.names.Len()
	if err := p.encodeKeyed(om); err != nil {
		return err
	}
	if !p.tryAdd(true, c, acks) {
		p.names.Truncate(mark)
		if p.nRun == 0 {
			p.res.oversized++ // alone in a frame it still exceeds the cap
			return nil
		}
		p.flush()
		if err := p.encodeKeyed(om); err != nil {
			return err
		}
		if !p.tryAdd(true, c, acks) {
			p.names.Truncate(0)
			p.res.oversized++
			return nil
		}
	}
	p.prev = om.Key
	return nil
}

// addBare places one bare item: in the pending frame, or the next.
func (p *framePacker) addBare(it protocol.ShardItem) error {
	var err error
	if p.scratch, err = codec.AppendShardItem(p.scratch[:0], it); err != nil {
		return err
	}
	p.res.encodes++
	c := protocol.BareCost(it)
	if p.tryAdd(false, c, nil) {
		return nil
	}
	p.flush()
	if !p.tryAdd(false, c, nil) {
		p.res.oversized++
	}
	return nil
}
