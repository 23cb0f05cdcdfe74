package codec

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"crdtsync/internal/lattice"
	"crdtsync/internal/protocol"
)

// Single-pass inbound frame unpacking. UnpackFrame is the one reader of a
// sharded frame and the mirror of the single-pass packer: it walks the raw
// frame once, decoding each item (readKeyed for a keyed item, DecodeMsg
// for a bare one, so the decode is the item's extent and its validation),
// routes each keyed item to the receiver's shard by its key
// (protocol.ShardOf), and groups the items by shard into reusable views. A
// frame either unpacks — every item decoded — or is refused whole, before
// its receiver has touched a shard.
//
// A frame has one spelling: the bytes the packer writes for its content
// (AppendShardedHeader, then the run through AppendKeyed, then the
// bare items through AppendShardItem). Every other spelling of the same
// content is refused — an overlong uvarint, a list out of order, a keyed
// item under a message tag, a byte after the last item — so that a frame
// UnpackFrame accepts re-packs to exactly its own bytes.
//
// The messages with a wire form are the ones a store sends. In sharded
// frames: the keyed items as one run in strictly ascending key order — the
// first key whole, every later one as the prefix it shares with the key
// before it and the rest (readKey); then a δ-group as its state alone, its
// replica names against the run's (readName), a map field's as tagKeyEntry
// and its value (readKeyed) — then bare shard items under their shard
// index and message tag, of which a TreeMsg closing a drill is the one
// stores send. A keyed item unpacks to its key and state, no message.
// Standalone: HelloMsg, DigestMsg and TreeMsg (see the tag block in msg.go
// for what is retired).
//
// A FrameView and everything it hands out is only valid until the next
// Unpack on the same view. An item's Key points into the view, where the
// walk rebuilt it; its Payload aliases the frame buffer, so callers that
// reuse read buffers must finish with the view before reusing the frame's
// bytes. Decoded states and messages never alias the buffer (the decoders
// copy, and a replica name is copied once per frame, into a string every
// state that names it shares), so only the views themselves are scoped.

// ErrNotSharded reports input whose leading tag is not one of the sharded
// frame encodings. Callers fall back to DecodeMsg for control frames
// (digest heartbeats, tree pushes).
var ErrNotSharded = errors.New("codec: not a sharded frame")

// ItemView is one item within a sharded frame: the shard it routes to,
// its key, its raw encoding and what that decodes to — a keyed item's
// δ-group state, a bare item's message. Key is nil for a bare item (the
// TreeMsg that closes a drill is the one stores send; the keyed engines
// ignore any other).
type ItemView struct {
	// Shard is the destination shard index: a keyed item's, routed by its
	// key among the receiver's shards; a bare item's as the frame named it,
	// already bounds-checked against the receiver's shard count.
	Shard uint32
	// Key is the object key, rebuilt from the frame into the view and
	// valid until the view's next unpack; nil for a bare item, and non-nil
	// for a keyed one, even when empty.
	Key []byte
	// Payload is the inner message's full encoding (its first byte
	// included), aliasing the frame buffer. A keyed δ-group's is its state,
	// or tagKeyEntry and a map field's value, written against the names
	// the items before it in the run spelled.
	Payload []byte
	// State is a keyed item's δ-group, decoded by the walk that found its
	// extent; nil for a bare item.
	State lattice.State

	msg protocol.Msg // a bare item's Payload, decoded likewise
}

// Tag returns the payload's first byte: a message tag, or on a keyed
// δ-group the state's tag — tagKeyEntry for a map field, tagCounterEntry
// and tagSetElement for a one-entry counter and a one-element set.
func (iv *ItemView) Tag() byte { return iv.Payload[0] }

// IsAckTag reports whether tag names a per-object acknowledgement or a
// Scuttlebutt digest. Both tags are retired — no frame that unpacks holds
// an item it is true of — and it remains for bench/tap.go, which the frozen
// benchmark compiles against it.
func IsAckTag(tag byte) bool {
	return tag == tagAckMsg || tag == tagSBDigestMsg
}

// Msg returns the item as a message: a keyed item's State as the DeltaMsg
// it would travel as outside a store, built on each call, and a bare
// item's message as UnpackFrame decoded it. The error is always nil (the
// frozen bench/ compiles against the signature). The message owns its
// memory (the decoders copy out of the input), so it stays valid after the
// frame buffer is reused — only the view itself is frame-scoped.
func (iv *ItemView) Msg() (protocol.Msg, error) {
	if iv.Key != nil {
		return protocol.NewDeltaMsg(iv.State), nil
	}
	return iv.msg, nil
}

// ItemGroup is one shard's run of item views within an unpacked frame —
// the unit the store applies under a single lock hold.
type ItemGroup struct {
	Shard uint32
	Items []ItemView
}

// FrameView is the reusable result of UnpackFrame: the piggybacked digest
// vector (if any) and the item views grouped by shard. A view is valid
// until its next Unpack; pool and reuse it — a steady-state unpack
// allocates what its items decode to and nothing for the view.
type FrameView struct {
	// Digests is the piggybacked per-shard digest vector, never empty
	// when the frame carried one and empty when it did not. The backing
	// array is reused across unpacks.
	Digests []uint64
	// Dropped counts bare items whose shard index was outside the
	// receiver's shard range — a shard-map mismatch between sender and
	// receiver. They are decoded, not delivered; the transport surfaces the
	// count. A keyed item is never dropped: the receiver routes it.
	Dropped int
	// Link is the frame's link header, zero when it carried none. The
	// acknowledged ranges' backing array is reused across unpacks.
	Link protocol.LinkHeader

	ranges []protocol.SeqRange // backing of Link.Ack.Ranges
	keys   []byte              // the items' keys, rebuilt (readKey)
	names  Names               // the replica names the run spelled (readName)
	items  []ItemView          // wire order: the run, then bare items
	sorted []ItemView          // shard order (scratch for the grouping sort)
	counts []int               // counting-sort scratch, one slot per shard
	groups []ItemGroup         // contiguous per-shard runs
}

// Groups returns the frame's items grouped by shard, each shard exactly
// once, with the frame's per-shard item order preserved inside its group:
// its keyed items in key order, then its bare items.
func (v *FrameView) Groups() []ItemGroup { return v.groups }

// NumItems returns the number of item views the unpack kept (flattened
// across groups, excluding dropped items).
func (v *FrameView) NumItems() int { return len(v.items) }

// reset clears the view for reuse, releasing references to previously
// decoded items and the previous frame's buffer so a pooled view never
// pins a dead frame or its states. Only the prefix the last unpack wrote
// is cleared — everything past len is zero already, by induction — so the
// cost follows the last frame's size, not the largest frame the view has
// ever held.
func (v *FrameView) reset() {
	v.Digests = v.Digests[:0]
	v.Dropped = 0
	v.Link = protocol.LinkHeader{}
	v.keys = v.keys[:0]
	v.names.Truncate(0)
	clear(v.items)
	v.items = v.items[:0]
	clear(v.sorted)
	v.sorted = v.sorted[:0]
	clear(v.groups) // they alias items and sorted
	v.groups = v.groups[:0]
}

// maxRetainedItems bounds the item arrays an idle view keeps: one bulk
// frame (tens of thousands of items, 88 bytes of view each, twice over
// with the grouping scratch) must not stay pinned by every pooled view
// that happened to unpack one.
const maxRetainedItems = 4096

// maxRetainedKeyBytes is maxRetainedItems for the key buffer: room for
// that many keys of 16 bytes.
const maxRetainedKeyBytes = 16 * maxRetainedItems

// Reset clears the view without unpacking a new frame, dropping its
// references to the last frame's buffer and decoded items. Callers
// that pool views call it before Put so an idle pooled view pins nothing;
// item arrays and a name table grown past maxRetainedItems, and a key
// buffer past maxRetainedKeyBytes, are dropped, not pooled.
func (v *FrameView) Reset() {
	v.reset()
	if cap(v.keys) > maxRetainedKeyBytes {
		v.keys = nil
	}
	if cap(v.names.list) > maxRetainedItems {
		v.names = Names{}
	}
	if cap(v.items) > maxRetainedItems {
		v.items = nil
	}
	if cap(v.sorted) > maxRetainedItems {
		v.sorted = nil
	}
}

// UnpackFrame walks one encoded sharded frame (any variant) into v,
// grouped by shard. shards is the receiver's shard count, a power of two:
// keyed items are routed among them by key, and bare items that name a
// shard beyond them are counted in v.Dropped and left out. It accepts a
// frame only in the one spelling the packer writes for its content, so
// that an accepted frame re-packs to exactly its own bytes; every count is
// checked against the bytes that remain, so hostile input fails with an
// error before any allocation larger than the input, the keys it rebuilds
// are bounded by maxShared, and each replica name is copied once however
// often the run refers to it. It returns ErrNotSharded for any other
// message kind, which callers decode with DecodeMsg. After an error v is
// empty: a pooled view never holds the decoded half of a frame that was
// refused.
func UnpackFrame(data []byte, shards int, v *FrameView) error {
	v.reset()
	err := v.unpack(data, shards)
	if err != nil {
		v.reset()
	}
	return err
}

func (v *FrameView) unpack(data []byte, shards int) error {
	if shards < 1 {
		return fmt.Errorf("codec: unpacking for %d shards", shards)
	}
	if len(data) == 0 {
		return ErrTruncated
	}
	tag := data[0]
	if !isShardedTag(tag) {
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
	var prev []byte
	for i := uint64(0); i < h.keyed; i++ {
		key, payload, st, m, err := readKeyed(data[n:], prev, &v.keys, &v.names)
		if err != nil {
			return err
		}
		n += m
		prev = key
		v.items = append(v.items, ItemView{Shard: protocol.ShardOf(key, shards), Key: key, Payload: payload, State: st})
	}
	for i := uint64(0); i < h.bare; i++ {
		shard, m, err := readShardIndex(data[n:])
		if err != nil {
			return err
		}
		n += m
		// An out-of-range item is decoded all the same, so that it costs its
		// sender the full check.
		msg, m, err := DecodeMsg(data[n:])
		if err != nil {
			return err
		}
		payload := data[n : n+m]
		n += m
		if int64(shard) >= int64(shards) {
			v.Dropped++
			continue
		}
		v.items = append(v.items, ItemView{Shard: shard, Payload: payload, msg: msg})
	}
	if n != len(data) {
		return fmt.Errorf("codec: %d bytes after a frame's last item", len(data)-n)
	}
	v.group(shards)
	return nil
}

// group builds the per-shard runs. A frame's keyed items arrive in key
// order, which hashing scatters over the shards, so a frame that touches
// more than one shard takes a stable counting sort — O(items + shards),
// order within each shard preserved; one whose items already arrive in
// shard order (a single item, a single shard) takes one pass.
func (v *FrameView) group(shards int) {
	items := v.items
	if !slices.IsSortedFunc(items, func(a, b ItemView) int { return cmp.Compare(a.Shard, b.Shard) }) {
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
