package transport

import (
	"cmp"
	"slices"

	"crdtsync/internal/codec"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
)

// The single-pass frame packer. One pass's δ-groups and closes for one
// peer must go out as frames no larger than the configured cap. Since wire
// version 5 a frame writes all of its keyed items as one run in ascending
// key order, with no shard index: the packer sorts the δ-groups the
// shards left in shard order into one run and packs it greedily, each item
// encoded once against the key before it and, since wire version 6,
// against the replica names the frame's run has spelled (codec.Names). The
// item that opens a frame's run is written whole, its key and its names,
// so the one a split moves to the next frame is encoded once more; the
// bare items (a drill's close) follow the whole run, in the last frames,
// so that a close never arrives before the states it goes with. A pass
// therefore costs one sort of its keyed items and O(items) encoding work,
// however many frames it fills.
//
// Frame sizes are computed exactly, not estimated: codec exposes the
// header size for any (digest vector, item counts) combination, so a
// candidate frame is admitted or flushed on its true encoded length.
//
// Transmission accounting never reaches the wire; the packer sums it per
// frame for the sender's own Stats().Sent.
//
// The packer is also where acknowledgement moves from the object to the
// link. An acked engine's δ-group goes out as the plain one; the frame
// that takes it gets a sequence number in its header, and the link records
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
	// link is the pending frame's link header: the acknowledgement the
	// destination is owed, until a frame has taken it, and a sequence
	// number from the first acked δ-group the frame admits. rec is what
	// that number stands for.
	link protocol.LinkHeader
	rec  []ackItem
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

// tryAdd admits the piece in p.scratch — the keyed item of g, or a bare
// item for a nil g — into the pending frame if the frame's exact encoded
// size stays within the cap. An acked engine's δ-group gives the frame a
// sequence number, if it has none yet, and its entries join the record of
// what the number stands for. The digest vector is not considered here:
// it attaches to the flush's final frame (see packFrames), so a receiver
// has merged the whole tick before it compares digests — a vector on an
// early frame of a split tick would advertise state the remaining frames
// are still carrying and provoke spurious shard requests.
func (p *framePacker) tryAdd(g *group, c metrics.Transmission) bool {
	acked := g != nil && len(g.seqs) > 0 && p.lk != nil
	link := p.link
	if acked && link.Seq.Seq == 0 {
		link.Seq = p.lk.next()
	}
	k, b := 0, 1
	if g != nil {
		k, b = 1, 0
	}
	if p.size(link, nil, k, b, len(p.scratch)) > p.limit {
		return false
	}
	p.link = link
	if acked {
		p.rec = append(p.rec, ackItem{shard: protocol.ShardOf(g.key, p.shards), key: g.key, seqs: g.seqs, retry: g.retry})
	}
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

// packFrames encodes d's δ-groups and bare items once each and packs them
// greedily into frames whose encoded size never exceeds limit: the
// δ-groups as one key-ordered run (keyedRun), then the bare items in
// order. digests, when non-nil, is piggybacked onto the flush's final
// frame when it has room — after every data piece, so the receiver's
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
func packFrames(d *outDest, digests []uint64, limit, shards int, lk *link, now, hold int64) (packResult, error) {
	p := &framePacker{limit: limit, shards: shards, vec: digests, lk: lk, now: now}
	if lk != nil {
		p.link.Ack, _ = lk.takeAck(now, hold)
	}
	err := p.pack(d)
	if p.link.Ack.Inc != 0 {
		lk.owe() // no frame left to carry it
	}
	return p.res, err
}

func (p *framePacker) pack(d *outDest) error {
	run := keyedRun(d.groups)
	for i := range run {
		if err := p.addKeyed(&run[i]); err != nil {
			return err
		}
	}
	for _, it := range d.bare {
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

// keyedRun sorts groups, in place, into one run in strictly ascending key
// order, and returns it: the groups of a key named twice are joined into
// one, the join of their states under the entry seqs of both. A shard's
// engine names each key once a pass, but a drill's answer and a new
// drill's stop on one shard can both land in one pass toward a peer.
func keyedRun(groups []group) []group {
	slices.SortStableFunc(groups, func(a, b group) int { return cmp.Compare(a.key, b.key) })
	run := groups[:0]
	for _, g := range groups {
		if last := len(run) - 1; last >= 0 && run[last].key == g.key {
			st := run[last].delta.Clone()
			st.Merge(g.delta)
			run[last] = group{g.key, st, append(slices.Clip(run[last].seqs), g.seqs...), run[last].retry || g.retry}
		} else {
			run = append(run, g)
		}
	}
	return run
}

// addKeyed places one keyed item: in the pending frame, or as the first of
// the next — written again, whole, if it was written against a key and
// names the frame it opens does not have. An item that leaves a frame
// takes back the names it spelled there. Its share of the frame's
// accounting is its state's elements and payload, and its key as routing
// metadata.
func (p *framePacker) addKeyed(g *group) error {
	c := metrics.Transmission{Elements: g.delta.Elements(), PayloadBytes: g.delta.SizeBytes(), MetadataBytes: len(g.key)}
	for {
		var prev *string
		if p.nRun > 0 {
			prev = &p.prev
		}
		mark := p.names.Len()
		var err error
		if p.scratch, err = codec.AppendKeyed(p.scratch[:0], prev, g.key, g.delta, &p.names); err != nil {
			return err
		}
		p.res.encodes++
		if p.tryAdd(g, c) {
			p.prev = g.key
			return nil
		}
		p.names.Truncate(mark)
		if p.nRun == 0 {
			p.res.oversized++ // alone in a frame it still exceeds the cap
			return nil
		}
		p.flush()
	}
}

// addBare places one bare item: in the pending frame, or the next.
func (p *framePacker) addBare(it protocol.ShardItem) error {
	var err error
	if p.scratch, err = codec.AppendShardItem(p.scratch[:0], it); err != nil {
		return err
	}
	p.res.encodes++
	c := protocol.BareCost(it)
	if p.tryAdd(nil, c) {
		return nil
	}
	p.flush()
	if !p.tryAdd(nil, c) {
		p.res.oversized++
	}
	return nil
}
