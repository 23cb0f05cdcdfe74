package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"crdtsync/internal/protocol"
)

// Single-pass inbound frame unpacking. The transport's receive path used
// to decode a frame fully — ShardedMsg, item slice, every batch, every
// object message, every state — before touching a single shard. UnpackFrame
// is the mirror of the single-pass packer: it walks the raw frame once,
// validating structure with the same hostile-input bounds as the eager
// decoders but materializing nothing, and groups the items by shard into
// reusable views whose key and payload bytes alias the frame buffer.
// Payloads decode lazily (ItemView.Msg), exactly once, at the moment a
// shard engine needs the message — and a consumer that only needs to
// classify an item (ack vs data, for watcher notification) reads its wire
// tag without decoding anything.
//
// A FrameView and everything it hands out is only valid until the next
// Unpack on the same view, and aliases the frame buffer: callers that
// reuse read buffers must finish with the view before reusing the frame's
// bytes. Decoded messages never alias the buffer (the decoders copy), so
// only the views themselves are scoped.

// ErrNotSharded reports input whose leading tag is not one of the sharded
// frame encodings. Callers fall back to DecodeMsg for control frames
// (digest heartbeats, tree pushes).
var ErrNotSharded = errors.New("codec: not a sharded frame")

// ItemView is one object's message within a sharded frame: the shard it
// routes to, its key, and the raw encoding of its inner message. Key and
// Payload alias the frame buffer. Key is nil for a shard item that is not
// a per-object batch (a bare engine message — conforming stores never send
// one, and the keyed engines ignore them).
type ItemView struct {
	// Shard is the destination shard index, already bounds-checked
	// against the receiver's shard count by UnpackFrame.
	Shard uint32
	// Key is the object key, aliasing the frame buffer; nil when the
	// item did not come from a per-object batch.
	Key []byte
	// Payload is the inner message's full encoding (tag byte included),
	// aliasing the frame buffer.
	Payload []byte

	msg protocol.Msg // decoded on first Msg call
}

// Tag returns the payload's wire tag — enough to classify an item (ack,
// anti-entropy digest, delta) without decoding it.
func (iv *ItemView) Tag() byte { return iv.Payload[0] }

// IsAckTag reports whether tag names a pure acknowledgement or protocol
// digest — messages that carry no object state, so watcher notification
// and similar state-change consumers skip them by tag alone.
func IsAckTag(tag byte) bool {
	return tag == tagAckMsg || tag == tagSBDigestMsg
}

// Msg decodes the payload into a protocol message, once; repeated calls
// return the cached result. The decoded message owns its memory (the
// decoders copy out of the input), so it stays valid after the frame
// buffer is reused — only the view itself is frame-scoped.
func (iv *ItemView) Msg() (protocol.Msg, error) {
	if iv.msg != nil {
		return iv.msg, nil
	}
	m, n, err := DecodeMsg(iv.Payload)
	if err != nil {
		return nil, err
	}
	if n != len(iv.Payload) {
		// The skip walk and the decoder disagree on the payload extent:
		// a codec bug, surfaced instead of silently misrouting bytes.
		return nil, fmt.Errorf("codec: item decode consumed %d of %d bytes", n, len(iv.Payload))
	}
	iv.msg = m
	return m, nil
}

// ItemGroup is one shard's run of item views within an unpacked frame —
// the unit the store applies under a single lock hold.
type ItemGroup struct {
	Shard uint32
	Items []ItemView
}

// FrameView is the reusable result of UnpackFrame: the piggybacked digest
// vector (if any) and the item views grouped by shard. A view is valid until its next Unpack; pool and reuse it — a
// steady-state unpack allocates nothing.
type FrameView struct {
	// Digests is the piggybacked per-shard digest vector; nil when the
	// frame carried none. The backing array is reused across unpacks.
	Digests []uint64
	// Dropped counts items whose shard index was outside the receiver's
	// shard range — a shard-map mismatch between sender and receiver.
	// They are skipped, not delivered; the transport surfaces the count.
	Dropped int
	// Link is the frame's link header, zero when it carried none. The
	// acknowledged ranges' backing array is reused across unpacks.
	Link protocol.LinkHeader

	ranges []protocol.SeqRange // backing of Link.Ack.Ranges
	items  []ItemView          // wire order
	sorted []ItemView          // shard order (scratch for the grouping sort)
	counts []int               // counting-sort scratch, one slot per shard
	groups []ItemGroup         // contiguous per-shard runs
}

// Groups returns the frame's items grouped by shard, each shard exactly
// once, with the frame's per-shard item order preserved inside its group.
func (v *FrameView) Groups() []ItemGroup { return v.groups }

// NumItems returns the number of item views the unpack kept (flattened
// across groups, excluding dropped items).
func (v *FrameView) NumItems() int { return len(v.items) }

// reset clears the view for reuse, releasing references to previously
// decoded messages and the previous frame's buffer so a pooled view never
// pins a dead frame or its states. Only the prefix the last unpack wrote
// is cleared — everything past len is zero already, by induction — so the
// cost follows the last frame's size, not the largest frame the view has
// ever held.
func (v *FrameView) reset() {
	v.Digests = v.Digests[:0]
	v.Dropped = 0
	v.Link = protocol.LinkHeader{}
	clear(v.items)
	v.items = v.items[:0]
	clear(v.sorted)
	v.sorted = v.sorted[:0]
	clear(v.groups) // they alias items and sorted
	v.groups = v.groups[:0]
}

// maxRetainedItems bounds the item arrays an idle view keeps: one bulk
// frame (tens of thousands of items, 72 bytes of view each, twice over
// with the grouping scratch) must not stay pinned by every pooled view
// that happened to unpack one.
const maxRetainedItems = 4096

// Reset clears the view without unpacking a new frame, dropping its
// references to the last frame's buffer and decoded messages. Callers
// that pool views call it before Put so an idle pooled view pins nothing;
// item arrays grown past maxRetainedItems are dropped, not pooled.
func (v *FrameView) Reset() {
	v.reset()
	if cap(v.items) > maxRetainedItems {
		v.items = nil
	}
	if cap(v.sorted) > maxRetainedItems {
		v.sorted = nil
	}
}

// UnpackFrame walks one encoded sharded frame (any variant) into v,
// grouped by shard. shards is the receiver's shard count: items routed
// beyond it are counted in v.Dropped and skipped. It accepts exactly the
// frames DecodeMsg accepts — the skip walk enforces the same nesting
// depth, count-versus-remaining-bytes, and index-range bounds, so hostile
// input fails with an error before any large allocation — and returns
// ErrNotSharded for any other message kind, which callers decode eagerly.
func UnpackFrame(data []byte, shards int, v *FrameView) error {
	v.reset()
	if len(data) == 0 {
		return ErrTruncated
	}
	tag := data[0]
	if tag != tagShardedMsg && tag != tagShardedDigestMsg && tag != tagShardedLinkMsg {
		return ErrNotSharded
	}
	h, n, err := readShardedHeader(tag, data[1:], v.ranges)
	if err != nil {
		return err
	}
	n++
	v.Link = h.link
	if h.link.Ack.Ranges != nil {
		v.ranges = h.link.Ack.Ranges
	}
	for i := 0; i < len(h.digests); i += 8 {
		v.Digests = append(v.Digests, binary.BigEndian.Uint64(h.digests[i:]))
	}
	count := h.count
	grouped := true // items arrive in non-decreasing shard order
	var lastShard uint32
	for i := uint64(0); i < count; i++ {
		shard, m, err := readUvarint(data[n:])
		if err != nil {
			return err
		}
		if shard > math.MaxUint32 {
			// Truncating would alias a corrupt index into the valid
			// shard range, bypassing the bounds check below.
			return fmt.Errorf("codec: shard index %d out of range", shard)
		}
		n += m
		keep := shard < uint64(shards)
		m, err = v.appendItem(data, n, uint32(shard), keep)
		if err != nil {
			return err
		}
		n += m
		if !keep {
			v.Dropped++
			continue
		}
		if len(v.items) > 0 && uint32(shard) < lastShard {
			grouped = false
		}
		lastShard = uint32(shard)
	}
	v.group(shards, grouped)
	return nil
}

// appendItem walks one shard item starting at data[at:], appending its
// flattened views to v.items when keep is true (always validating, so a
// dropped or out-of-range item still costs the sender a full structural
// check). A per-object batch flattens into one view per object message;
// any other message becomes a single keyless view.
func (v *FrameView) appendItem(data []byte, at int, shard uint32, keep bool) (int, error) {
	d := data[at:]
	if len(d) == 0 {
		return 0, ErrTruncated
	}
	if d[0] != tagBatchMsg {
		n, err := skipMsg(d, 1)
		if err != nil {
			return 0, err
		}
		if keep {
			v.items = append(v.items, ItemView{Shard: shard, Payload: d[:n]})
		}
		return n, nil
	}
	// A batch: walk its header, then flatten each (key, inner message)
	// pair into its own view. The batch-level wrapper is never
	// materialized on the receive path.
	n := 1
	count, m, err := readUvarint(d[n:])
	if err != nil {
		return 0, err
	}
	n += m
	for i := uint64(0); i < count; i++ {
		klen, m, err := readUvarint(d[n:])
		if err != nil {
			return 0, err
		}
		if klen > uint64(len(d)-n-m) {
			return 0, ErrTruncated
		}
		key := d[n+m : n+m+int(klen)]
		n += m + int(klen)
		inner, err := skipMsg(d[n:], 2)
		if err != nil {
			return 0, err
		}
		if keep {
			v.items = append(v.items, ItemView{Shard: shard, Key: key, Payload: d[n : n+inner]})
		}
		n += inner
	}
	return n, nil
}

// group builds the per-shard runs. Conforming senders emit items in shard
// order (the packer walks shards in index order), so the common case is a
// single pass over already-grouped items; interleaved frames (a drain
// coalition splicing several ticks) fall back to a stable counting sort —
// O(items + shards), order within each shard preserved.
func (v *FrameView) group(shards int, grouped bool) {
	items := v.items
	if !grouped {
		if cap(v.counts) < shards {
			v.counts = make([]int, shards)
		}
		counts := v.counts[:shards]
		clear(counts)
		for i := range items {
			counts[items[i].Shard]++
		}
		off := 0
		for s := range counts {
			c := counts[s]
			counts[s] = off
			off += c
		}
		if cap(v.sorted) < len(items) {
			v.sorted = make([]ItemView, len(items))
		}
		v.sorted = v.sorted[:len(items)]
		for i := range items {
			s := items[i].Shard
			v.sorted[counts[s]] = items[i]
			counts[s]++
		}
		items = v.sorted
	}
	for i := 0; i < len(items); {
		j := i + 1
		for j < len(items) && items[j].Shard == items[i].Shard {
			j++
		}
		v.groups = append(v.groups, ItemGroup{Shard: items[i].Shard, Items: items[i:j]})
		i = j
	}
}

// The skip walkers: structural validation that computes encoded extents
// without materializing anything. Each mirrors its reader exactly — same
// bounds, same nesting limits, same rejections — so a payload the walk
// accepts always decodes, and one it rejects never would have.

func skipUvarint(data []byte) (int, error) {
	_, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, ErrTruncated
	}
	return n, nil
}

func skipString(data []byte) (int, error) {
	l, n, err := readUvarint(data)
	if err != nil {
		return 0, err
	}
	if l > uint64(len(data)-n) {
		return 0, ErrTruncated
	}
	return n + int(l), nil
}

func skipStringList(data []byte) (int, error) {
	count, n, err := readUvarint(data)
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < count; i++ {
		m, err := skipString(data[n:])
		if err != nil {
			return 0, err
		}
		n += m
	}
	return n, nil
}

func skipVClock(data []byte) (int, error) {
	count, n, err := readUvarint(data)
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < count; i++ {
		m, err := skipString(data[n:])
		if err != nil {
			return 0, err
		}
		n += m
		m, err = skipUvarint(data[n:])
		if err != nil {
			return 0, err
		}
		n += m
	}
	return n, nil
}

func skipDot(data []byte) (int, error) {
	n, err := skipString(data)
	if err != nil {
		return 0, err
	}
	m, err := skipUvarint(data[n:])
	if err != nil {
		return 0, err
	}
	return n + m, nil
}

func skipSeqs(data []byte) (int, error) {
	count, n, err := readUvarint(data)
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < count; i++ {
		m, err := skipUvarint(data[n:])
		if err != nil {
			return 0, err
		}
		n += m
	}
	return n, nil
}

// skipState computes one encoded state's extent, mirroring readStateDepth.
func skipState(data []byte, depth int) (int, error) {
	if depth >= maxStateNesting {
		return 0, ErrNestingTooDeep
	}
	if len(data) == 0 {
		return 0, ErrTruncated
	}
	tag, body := data[0], data[1:]
	var (
		n   int
		err error
	)
	switch tag {
	case tagMaxInt:
		n, err = skipUvarint(body)

	case tagFlag:
		if len(body) < 1 {
			return 0, ErrTruncated
		}
		n = 1

	case tagSet, tagGSet:
		n, err = skipStringList(body)

	case tagMap:
		var count uint64
		var m int
		count, n, err = readUvarint(body)
		if err != nil {
			return 0, err
		}
		for i := uint64(0); i < count; i++ {
			m, err = skipString(body[n:])
			if err != nil {
				return 0, err
			}
			n += m
			m, err = skipState(body[n:], depth+1)
			if err != nil {
				return 0, err
			}
			n += m
		}

	case tagGCounter, tagPNCounter:
		uvarints := 1 // per-entry counters after the id
		if tag == tagPNCounter {
			uvarints = 2
		}
		var count uint64
		var m int
		count, n, err = readUvarint(body)
		if err != nil {
			return 0, err
		}
		for i := uint64(0); i < count; i++ {
			m, err = skipString(body[n:])
			if err != nil {
				return 0, err
			}
			n += m
			for u := 0; u < uvarints; u++ {
				m, err = skipUvarint(body[n:])
				if err != nil {
					return 0, err
				}
				n += m
			}
		}

	case tagTwoPSet:
		var m int
		n, err = skipStringList(body)
		if err != nil {
			return 0, err
		}
		m, err = skipStringList(body[n:])
		n += m

	case tagLWW:
		var m int
		n, err = skipUvarint(body)
		if err != nil {
			return 0, err
		}
		for i := 0; i < 2; i++ {
			m, err = skipString(body[n:])
			if err != nil {
				return 0, err
			}
			n += m
		}

	case tagAWSet:
		var count uint64
		var m int
		count, n, err = readUvarint(body)
		if err != nil {
			return 0, err
		}
		// An AWSet atom is (elem, actor, seq): two strings then a
		// uvarint — an elem string followed by a dot.
		for i := uint64(0); i < count; i++ {
			m, err = skipString(body[n:])
			if err != nil {
				return 0, err
			}
			n += m
			m, err = skipDot(body[n:])
			if err != nil {
				return 0, err
			}
			n += m
		}

	default:
		return 0, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
	if err != nil {
		return 0, err
	}
	return n + 1, nil
}

// skipMsg computes one encoded protocol message's extent, mirroring
// decodeMsg/readMsgBody: same tags, same bounds, same depth limit.
func skipMsg(data []byte, depth int) (int, error) {
	if depth >= maxMsgNesting {
		return 0, ErrNestingTooDeep
	}
	if len(data) == 0 {
		return 0, ErrTruncated
	}
	tag := data[0]
	n := 1
	body := data
	switch tag {
	case tagStateMsg, tagDeltaMsg:
		m, err := skipState(body[n:], 0)
		if err != nil {
			return 0, err
		}
		return n + m, nil

	case tagAckedDeltaMsg:
		m, err := skipSeqs(body[n:])
		if err != nil {
			return 0, err
		}
		n += m
		m, err = skipState(body[n:], 0)
		if err != nil {
			return 0, err
		}
		return n + m, nil

	case tagAckMsg:
		m, err := skipSeqs(body[n:])
		if err != nil {
			return 0, err
		}
		return n + m, nil

	case tagSBDigestMsg:
		m, err := skipVClock(body[n:])
		if err != nil {
			return 0, err
		}
		n += m
		if len(body) <= n {
			return 0, ErrTruncated
		}
		hasMatrix := body[n] == 1
		n++
		if hasMatrix {
			count, m, err := readUvarint(body[n:])
			if err != nil {
				return 0, err
			}
			n += m
			for i := uint64(0); i < count; i++ {
				m, err = skipString(body[n:])
				if err != nil {
					return 0, err
				}
				n += m
				m, err = skipVClock(body[n:])
				if err != nil {
					return 0, err
				}
				n += m
			}
		}
		return n, nil

	case tagSBDeltasMsg:
		count, m, err := readUvarint(body[n:])
		if err != nil {
			return 0, err
		}
		n += m
		for i := uint64(0); i < count; i++ {
			m, err = skipDot(body[n:])
			if err != nil {
				return 0, err
			}
			n += m
			m, err = skipState(body[n:], 0)
			if err != nil {
				return 0, err
			}
			n += m
		}
		return n, nil

	case tagOpsMsg:
		count, m, err := readUvarint(body[n:])
		if err != nil {
			return 0, err
		}
		n += m
		for i := uint64(0); i < count; i++ {
			m, err = skipDot(body[n:])
			if err != nil {
				return 0, err
			}
			n += m
			m, err = skipVClock(body[n:])
			if err != nil {
				return 0, err
			}
			n += m
			m, err = skipUvarint(body[n:])
			if err != nil {
				return 0, err
			}
			n += m
			m, err = skipState(body[n:], 0)
			if err != nil {
				return 0, err
			}
			n += m
		}
		return n, nil

	case tagBatchMsg:
		count, m, err := readUvarint(body[n:])
		if err != nil {
			return 0, err
		}
		n += m
		for i := uint64(0); i < count; i++ {
			m, err = skipString(body[n:])
			if err != nil {
				return 0, err
			}
			n += m
			m, err = skipMsg(body[n:], depth+1)
			if err != nil {
				return 0, err
			}
			n += m
		}
		return n, nil

	case tagShardedMsg, tagShardedDigestMsg, tagShardedLinkMsg:
		h, m, err := readShardedHeader(tag, body[n:], nil)
		if err != nil {
			return 0, err
		}
		n += m
		count := h.count
		for i := uint64(0); i < count; i++ {
			shard, m, err := readUvarint(body[n:])
			if err != nil {
				return 0, err
			}
			if shard > math.MaxUint32 {
				return 0, fmt.Errorf("codec: shard index %d out of range", shard)
			}
			n += m
			m, err = skipMsg(body[n:], depth+1)
			if err != nil {
				return 0, err
			}
			n += m
		}
		return n, nil

	case tagDigestMsg, tagDigestEchoMsg:
		dcount, m, err := readUvarint(body[n:])
		if err != nil {
			return 0, err
		}
		n += m
		if dcount > uint64(len(body)-n)/8 {
			return 0, ErrTruncated
		}
		n += 8 * int(dcount)
		if len(body) <= n {
			return 0, ErrTruncated
		}
		if body[n] != 0 {
			return 0, fmt.Errorf("codec: digest message with a shard-request list")
		}
		return n + 1, nil

	case tagHelloMsg:
		_, _, m, err := readHelloFixed(body[n:])
		if err != nil {
			return 0, err
		}
		n += m
		m, err = skipStringList(body[n:])
		if err != nil {
			return 0, err
		}
		return n + m, nil

	case tagTreeMsg:
		h, m, err := readTreeHeader(body[n:])
		if err != nil {
			return 0, err
		}
		n += m
		for i := uint64(0); i < h.count; i++ {
			_, m, err := h.readNode(body[n:])
			if err != nil {
				return 0, err
			}
			n += m + h.hashBytes()
		}
		return n, nil

	default:
		return 0, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
}
