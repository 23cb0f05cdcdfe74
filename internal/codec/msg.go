package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"crdtsync/internal/lattice"
	"crdtsync/internal/protocol"
)

// Message tags. Stable on the wire: append, never renumber. Only the
// messages a store sends have a wire form. The tags marked retired belonged
// to the engines that run under internal/netsim alone (state-based,
// Scuttlebutt, op-based), to the per-object acknowledgement the link
// header replaced, and to the link header's wire version 1 form, a flag
// byte after one tag: their values stay reserved, EncodeMsg has no format
// for those messages and the decoders refuse the tags like any unknown one.
// Inside a keyed item a DeltaMsg goes without its tag (readObjectMsg), and
// tagDeltaMsg is refused there too. A BatchMsg has a standalone form
// alone: in a frame its items are keyed items of the frame's run, and
// tagBatchMsg is refused as a bare item.
const (
	tagStateMsg byte = iota + 64 // retired
	tagDeltaMsg
	tagAckedDeltaMsg
	tagAckMsg      // retired
	tagSBDigestMsg // retired
	tagSBDeltasMsg // retired
	tagOpsMsg      // retired
	tagBatchMsg
	tagShardedMsg
	tagDigestMsg
	tagShardedDigestMsg
	tagTreeMsg
	tagShardedLinkMsg // retired
	tagHelloMsg
	tagDigestEchoMsg
	// tagLinkMsg opens the block of the sharded frames with a link header:
	// tagLinkMsg-1+f is the frame whose header has the fields the flags f
	// name (linkSeq, linkAck, linkDigests, linkRanges), so that the tag is
	// the whole of what the flag byte said. Of the 15 values, the five that
	// name neither a sequence number nor an acknowledgement, or ranges
	// without an acknowledgement, are refused.
	tagLinkMsg
)

// tagLinkLast is the last tag of the link header block.
const tagLinkLast = tagLinkMsg - 1 + (linkSeq | linkAck | linkDigests | linkRanges)

// isShardedTag reports whether tag opens a sharded frame, any variant.
func isShardedTag(tag byte) bool {
	return tag == tagShardedMsg || tag == tagShardedDigestMsg || tag >= tagLinkMsg && tag <= tagLinkLast
}

// maxMsgNesting bounds message nesting during decoding. Legitimate
// traffic nests at most ShardedMsg → bare item (depth 2); a hostile
// frame of repeated container prefixes must fail with an error instead of
// exhausting the goroutine stack.
const maxMsgNesting = 8

// EncodeMsg serializes a protocol message. Transmission accounting is not
// part of the format: no receiver reads it, and DecodeMsg rebuilds each
// message's Cost() from its content with the constructors senders use.
func EncodeMsg(m protocol.Msg) ([]byte, error) {
	var b []byte
	return appendMsg(b, m)
}

// DecodeMsg deserializes one protocol message, returning the bytes
// consumed.
func DecodeMsg(data []byte) (protocol.Msg, int, error) {
	return decodeMsg(data, 0)
}

func decodeMsg(data []byte, depth int) (protocol.Msg, int, error) {
	if depth >= maxMsgNesting {
		return nil, 0, ErrNestingTooDeep
	}
	if len(data) == 0 {
		return nil, 0, ErrTruncated
	}
	m, n, err := readMsgBody(data[0], data[1:], depth)
	if err != nil {
		return nil, 0, err
	}
	return m, n + 1, nil
}

func appendSeqs(b []byte, seqs []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(seqs)))
	for _, s := range seqs {
		b = binary.AppendUvarint(b, s)
	}
	return b
}

func readSeqs(data []byte) ([]uint64, int, error) {
	count, n, err := readUvarint(data)
	if err != nil {
		return nil, 0, err
	}
	seqs := make([]uint64, 0, capHint(count, data[n:]))
	for i := uint64(0); i < count; i++ {
		s, m, err := readUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		seqs = append(seqs, s)
		n += m
	}
	return seqs, n, nil
}

func appendMsg(b []byte, m protocol.Msg) ([]byte, error) {
	switch v := m.(type) {
	case *protocol.DeltaMsg:
		b = append(b, tagDeltaMsg)
		return appendState(b, v.Delta, nil), nil

	case *protocol.AckedDeltaMsg:
		b = append(b, tagAckedDeltaMsg)
		b = appendSeqs(b, v.Seqs)
		return appendState(b, v.Delta, nil), nil

	case *protocol.BatchMsg:
		return appendBatch(b, v, false)

	case *protocol.ShardedMsg:
		b = AppendShardedHeader(b, v.Link, v.Digests, len(v.Keyed), len(v.Items))
		// A numbered frame has one encoding, the packer's: the number
		// acknowledges its δ-groups, which carry no seqs of their own.
		var err error
		if b, err = appendRun(b, v.Keyed, v.Link.Seq.Seq != 0); err != nil {
			return nil, err
		}
		for _, it := range v.Items {
			if _, ok := it.Msg.(*protocol.BatchMsg); ok {
				return nil, errBareBatch
			}
			if b, err = AppendShardItem(b, it); err != nil {
				return nil, err
			}
		}
		return b, nil

	case *protocol.DigestMsg:
		// An advertisement that asks for one back is the same body under
		// a tag of its own; a plain one's encoding has not moved.
		if v.Echo {
			b = append(b, tagDigestEchoMsg)
		} else {
			b = append(b, tagDigestMsg)
		}
		b = binary.AppendUvarint(b, uint64(len(v.Digests)))
		for _, d := range v.Digests {
			// Digests are hash values: fixed 8-byte words, since uvarint
			// averages >9 bytes on uniformly random 64-bit values.
			b = binary.BigEndian.AppendUint64(b, d)
		}
		// The count of the shard-request list advertisements once shared
		// this message with; requests are TreeMsg closes now, the byte
		// stays so that an advertisement's encoding does not move.
		return append(b, 0), nil

	case *protocol.HelloMsg:
		b = append(b, tagHelloMsg)
		b = binary.AppendUvarint(b, uint64(v.Version))
		b = binary.AppendUvarint(b, uint64(v.Shards))
		if v.Version >= 2 {
			b = binary.BigEndian.AppendUint32(b, v.Inc)
		}
		return appendStringList(b, v.Reaches), nil

	case *protocol.TreeMsg:
		push, role := len(v.Hashes) > 0, byte(treeClose)
		if push {
			role = treePush
			if len(v.Hashes) != protocol.TreeFanout*len(v.Nodes) {
				return nil, fmt.Errorf("codec: tree message with %d nodes but %d hashes", len(v.Nodes), len(v.Hashes))
			}
		}
		b = append(b, tagTreeMsg)
		b = binary.AppendUvarint(b, uint64(v.Shard))
		b = append(b, v.Level, role)
		b = binary.AppendUvarint(b, uint64(len(v.Nodes)))
		for i, idx := range v.Nodes {
			b = binary.AppendUvarint(b, uint64(idx))
			if !push {
				continue
			}
			// A node's children go as the node's index and their
			// TreeFanout hashes in child order — fixed 8-byte words, like
			// digest vectors — not as TreeFanout (index, hash) pairs.
			for _, h := range v.Hashes[i*protocol.TreeFanout : (i+1)*protocol.TreeFanout] {
				b = binary.BigEndian.AppendUint64(b, h)
			}
		}
		return b, nil

	default:
		return nil, fmt.Errorf("codec: no wire format for message %T", m)
	}
}

// errBareBatch refuses a BatchMsg as a frame's bare item: its objects are
// keyed items, and those have one place in a frame, its run.
var errBareBatch = errors.New("codec: a batch as a bare item of a frame")

// appendBatch appends a standalone per-object batch: its tag and count,
// then its items as a run.
func appendBatch(b []byte, bm *protocol.BatchMsg, link bool) ([]byte, error) {
	b = append(b, tagBatchMsg)
	b = binary.AppendUvarint(b, uint64(len(bm.Items)))
	return appendRun(b, bm.Items, link)
}

// appendRun appends keyed items as one run: each written against the key
// of the item before it, which it must be above (appendKey), and against
// the names the items before it spelled.
func appendRun(b []byte, items []protocol.ObjectMsg, link bool) ([]byte, error) {
	var nt Names
	for i, it := range items {
		var prev *string
		if i > 0 {
			prev = &items[i-1].Key
		}
		var err error
		if b, err = appendObjectMsg(b, prev, it, link, &nt); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// readRun reads count keyed items written as one run (appendRun).
func readRun(data []byte, count uint64) ([]protocol.ObjectMsg, int, error) {
	var items []protocol.ObjectMsg
	if count > 0 {
		items = make([]protocol.ObjectMsg, 0, capHint(count, data))
	}
	var keys, prev []byte
	var nt Names
	n := 0
	for i := uint64(0); i < count; i++ {
		k, _, inner, m, err := readObjectMsg(data[n:], prev, &keys, &nt)
		if err != nil {
			return nil, 0, err
		}
		n += m
		items = append(items, protocol.ObjectMsg{Key: string(k), Inner: inner})
		prev = k
	}
	return items, n, nil
}

// maxShared caps the prefix a keyed item's key takes from the key before
// it in its run, and so bounds what a frame can make its receiver build.
// An item after the first is at least 4 bytes — its shared length, the
// length of the rest, and a 2-byte state — and rebuilds at most maxShared
// bytes more than it spells, so the keys a frame rebuilds total at most
// (maxShared + 4) / 4 = 9 times its length. Without the cap a 64 MiB frame
// of 4-byte items, each sharing a 64 KB prefix, would rebuild terabytes.
const maxShared = 32

// minShared is the least prefix a key takes from the key before it: one
// that shares less — at most a namespace such as "c/" — is written whole.
// Sharing one or two bytes would save that many, and spelling them keeps
// every name that leaves the one before it at its first byte readable in
// the frame's raw bytes: where the run enters a namespace, or moves from
// one family of names to another ("c/n…" to "c/p/…"). The benchmark's
// traced runs find their probe counters that way.
const minShared = 3

// sharedLen returns how many bytes of prev key is written against: the
// length of their common prefix, at most maxShared, or 0 when that is
// below minShared — the one shared length readKey accepts.
func sharedLen(prev, key string) int {
	n := min(len(prev), len(key), maxShared)
	i := 0
	for i < n && prev[i] == key[i] {
		i++
	}
	if i < minShared {
		return 0
	}
	return i
}

// appendKey appends a keyed item's key. The first item of a run (prev
// nil) writes it whole: its length, then its bytes. Every later one writes
// the length of the prefix it shares with the key before it (sharedLen, 0
// for a prefix shorter than minShared), then the length and the bytes of
// the rest. A key that is not above the
// one before it is refused: a run names each key once, in ascending order.
func appendKey(b []byte, prev *string, key string) ([]byte, error) {
	if prev == nil {
		return appendString(b, key), nil
	}
	if key <= *prev {
		return nil, fmt.Errorf("codec: key %q after %q in a run", key, *prev)
	}
	shared := sharedLen(*prev, key)
	b = binary.AppendUvarint(b, uint64(shared))
	return appendString(b, key[shared:]), nil
}

// appendObjectMsg appends one keyed item of a per-object batch: the key,
// written against prev (appendKey), then the inner message. A δ-group is
// its state alone, written against the run's names nt (appendState), and a
// map field's, the one-entry map {key ↦ v}, is tagKeyEntry and v. An
// AckedDeltaMsg keeps its tag, entry seqs and context-free state, unless
// link is set: behind a link header, which acknowledges the frame as a
// whole, it is the plain δ-group.
func appendObjectMsg(b []byte, prev *string, it protocol.ObjectMsg, link bool, nt *Names) ([]byte, error) {
	b, err := appendKey(b, prev, it.Key)
	if err != nil {
		return nil, err
	}
	var s lattice.State
	switch v := it.Inner.(type) {
	case *protocol.DeltaMsg:
		s = v.Delta
	case *protocol.AckedDeltaMsg:
		if !link {
			return appendMsg(b, v)
		}
		s = v.Delta
	default:
		return nil, fmt.Errorf("codec: no keyed wire format for message %T", it.Inner)
	}
	if e, ok := soleEntry(s); ok && e.Key == it.Key {
		return appendState(append(b, tagKeyEntry), e.Val, nt), nil
	}
	return appendState(b, s, nt), nil
}

// soleEntry returns the entry of a one-entry map.
func soleEntry(s lattice.State) (lattice.MapEntry, bool) {
	if m, ok := s.(*lattice.Map); ok && m.Len() == 1 {
		return m.Sorted()[0], true
	}
	return lattice.MapEntry{}, false
}

// readKey reads a keyed item's key as appendKey writes it, against prev,
// the key of the item before it in its run (nil for the first), and
// appends it to *keys, which it makes non-nil. key is the appended part:
// never nil, even when empty. The second spellings are refused: a shared
// length past prev or maxShared, or above 0 and below minShared, one
// shorter than the prefix the key shares with prev up to maxShared (0 when
// that prefix is at least minShared long), and a key that is not above
// prev.
func readKey(data, prev []byte, keys *[]byte) (key []byte, n int, err error) {
	var shared uint64
	if prev != nil {
		if shared, n, err = readUvarint(data); err != nil {
			return nil, 0, err
		}
		if shared > uint64(len(prev)) || shared > maxShared || shared > 0 && shared < minShared {
			return nil, 0, fmt.Errorf("codec: key shares %d bytes with one of %d", shared, len(prev))
		}
	}
	rlen, m, err := readUvarint(data[n:])
	if err != nil {
		return nil, 0, err
	}
	n += m
	if rlen >= uint64(len(data)-n) { // and at least one byte of message
		return nil, 0, ErrTruncated
	}
	rest := data[n : n+int(rlen)]
	n += int(rlen)
	if prev != nil {
		longer := shared < maxShared && int(shared) < len(prev) && len(rest) > 0 && rest[0] == prev[shared]
		if shared == 0 {
			longer = len(rest) >= minShared && len(prev) >= minShared && bytes.Equal(rest[:minShared], prev[:minShared])
		}
		if longer {
			return nil, 0, fmt.Errorf("codec: key shares more than the %d bytes it says with the one before", shared)
		}
		// The key and prev share prev[:shared]: the rest decides.
		if bytes.Compare(rest, prev[shared:]) <= 0 {
			return nil, 0, fmt.Errorf("codec: key in a run not above %q", prev)
		}
	}
	if *keys == nil {
		*keys = make([]byte, 0, 256)
	}
	start := len(*keys)
	*keys = append(append(*keys, prev[:shared]...), rest...)
	return (*keys)[start:len(*keys):len(*keys)], n, nil
}

// readObjectMsg reads the keyed item data starts with, as appendObjectMsg
// writes it: its key, rebuilt against prev onto *keys (readKey), the inner
// message's encoding, aliasing data, the message decoded against the run's
// names nt, and the item's length. The second spellings are refused: a
// DeltaMsg's tag before a state (ErrUnknownTag, as for any message but an
// AckedDeltaMsg), the long form of a map field, and the short form of an
// empty one; and, in the state (readState), the long form of a one-entry
// counter or one-element set, a counter's short form of 0, a reference
// past the run's names and a second spelling of one.
func readObjectMsg(data, prev []byte, keys *[]byte, nt *Names) (key, payload []byte, m protocol.Msg, n int, err error) {
	key, n, err = readKey(data, prev, keys)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	data = data[n:]
	var s lattice.State
	var sn int
	switch data[0] {
	case tagAckedDeltaMsg:
		if m, sn, err = decodeMsg(data, 0); err != nil {
			return nil, nil, nil, 0, err
		}
		return key, data[:sn], m, n + sn, nil
	case tagKeyEntry:
		var v lattice.State
		v, sn, err = readState(data[1:], 1, nt)
		switch {
		case err != nil:
		case v.IsBottom():
			err = fmt.Errorf("codec: map field %q with no value", key)
		default:
			s, sn = lattice.NewMapEntry(string(key), v), sn+1
		}
	default:
		s, sn, err = readState(data, 0, nt)
		if e, ok := soleEntry(s); ok && e.Key == string(key) {
			err = fmt.Errorf("codec: map field %q in the long form", key)
		}
	}
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return key, data[:sn], protocol.NewDeltaMsg(s), n + sn, nil
}

// shardedHeader is a parsed sharded frame header, plain, with a digest
// vector or with a link header: the link header, the digest vector still
// as the raw 8-byte words it arrived in, and the item counts. The keyed
// run follows it, then the bare items.
type shardedHeader struct {
	link        protocol.LinkHeader
	digests     []byte // nil when the frame carries no vector
	keyed, bare uint64
}

// errAckRanges rejects an acknowledgement with more ranges than a sender
// may put in one, whatever the bytes behind the count: a view keeps the
// room it grew for the ranges of the frames it has unpacked.
var errAckRanges = errors.New("codec: acknowledgement of more than protocol.MaxAckRanges ranges")

// readShardedHeader parses the header that follows one of the sharded
// tags. ranges is the backing the acknowledgement's ranges are appended
// to (nil allocates). Every wire-declared count is checked against the
// bytes that remain before anything is allocated for it.
func readShardedHeader(tag byte, data []byte, ranges []protocol.SeqRange) (h shardedHeader, n int, err error) {
	var flags byte
	switch tag {
	case tagShardedMsg:
	case tagShardedDigestMsg:
		flags = linkDigests
	default:
		flags = tag - (tagLinkMsg - 1)
		// A header with neither half is one of the plain variants, which
		// is how it re-encodes; refuse the second spelling, and ranges
		// without the acknowledgement they are above.
		if flags&(linkSeq|linkAck) == 0 || flags&(linkRanges|linkAck) == linkRanges {
			return h, 0, fmt.Errorf("codec: link header tag %d names no header", tag)
		}
	}
	if flags&linkSeq != 0 {
		var m int
		if h.link.Seq.Seq, m, err = readUvarint(data[n:]); err != nil {
			return h, 0, err
		}
		n += m
		if h.link.Seq.Back, m, err = readUvarint(data[n:]); err != nil {
			return h, 0, err
		}
		n += m
		if h.link.Seq.Back >= h.link.Seq.Seq {
			return h, 0, fmt.Errorf("codec: frame %d waits on %d frames before it", h.link.Seq.Seq, h.link.Seq.Back)
		}
	}
	if flags&linkAck != 0 {
		var m int
		if h.link.Ack.Inc, m, err = readIncarnation(data[n:]); err != nil {
			return h, 0, err
		}
		n += m
		if h.link.Ack.Cum, m, err = readUvarint(data[n:]); err != nil {
			return h, 0, err
		}
		n += m
	}
	if flags&linkRanges != 0 {
		rcount, m, err := readUvarint(data[n:])
		if err != nil {
			return h, 0, err
		}
		n += m
		// The tag says there are ranges: a count of none is a second
		// spelling of the header without them.
		if rcount == 0 {
			return h, 0, fmt.Errorf("codec: acknowledgement with ranges names none")
		}
		if rcount > protocol.MaxAckRanges {
			return h, 0, errAckRanges
		}
		// A range is two uvarints, at least two bytes.
		if rcount > uint64(len(data)-n)/2 {
			return h, 0, ErrTruncated
		}
		ranges = slices.Grow(ranges[:0], int(rcount))
		mark := h.link.Ack.Cum
		for i := uint64(0); i < rcount; i++ {
			gap, m, err := readUvarint(data[n:])
			if err != nil {
				return h, 0, err
			}
			n += m
			span, m, err := readUvarint(data[n:])
			if err != nil {
				return h, 0, err
			}
			n += m
			lo := mark + 2 + gap
			hi := lo + span
			if mark+2 < mark || lo < gap || hi < lo {
				return h, 0, fmt.Errorf("codec: acknowledged range overflows")
			}
			ranges = append(ranges, protocol.SeqRange{Lo: lo, Hi: hi})
			mark = hi
		}
		h.link.Ack.Ranges = ranges
	}
	if flags&linkDigests != 0 {
		dcount, m, err := readUvarint(data[n:])
		if err != nil {
			return h, 0, err
		}
		n += m
		// Digests are fixed 8-byte words.
		if dcount > uint64(len(data)-n)/8 {
			return h, 0, ErrTruncated
		}
		// Non-nil even when empty: a decoded message must re-encode to
		// the same variant, and nil selects the one without a vector.
		h.digests = data[n : n+8*int(dcount) : n+8*int(dcount)]
		n += 8 * int(dcount)
	}
	counts, m, err := readUvarint(data[n:])
	if err != nil {
		return h, 0, err
	}
	n += m
	h.keyed = counts >> 1
	if counts&1 != 0 {
		if h.bare, m, err = readUvarint(data[n:]); err != nil {
			return h, 0, err
		}
		n += m
		// The bit says there are bare items: a count of none is a second
		// spelling of the header without them.
		if h.bare == 0 {
			return h, 0, fmt.Errorf("codec: frame with bare items names none")
		}
	}
	// Every item takes at least one byte.
	if rest := uint64(len(data) - n); h.keyed > rest || h.bare > rest-h.keyed {
		return h, 0, ErrTruncated
	}
	return h, n, nil
}

// readIncarnation reads a 4-byte incarnation: a hello's, or the one that
// opens a link header's acknowledgement. Zero is how a header says the
// acknowledgement is absent and how a connection says it has heard no
// hello, so it is never valid on the wire.
func readIncarnation(data []byte) (uint32, int, error) {
	if len(data) < 4 {
		return 0, 0, ErrTruncated
	}
	inc := binary.BigEndian.Uint32(data)
	if inc == 0 {
		return 0, 0, fmt.Errorf("codec: zero incarnation")
	}
	return inc, 4, nil
}

// readShardIndex reads a bare item's shard index.
func readShardIndex(data []byte) (uint32, int, error) {
	shard, n, err := readUvarint(data)
	if err != nil {
		return 0, 0, err
	}
	if shard > math.MaxUint32 {
		// Truncating would alias a corrupt index into the valid shard
		// range, bypassing the receiver's bounds check.
		return 0, 0, fmt.Errorf("codec: shard index %d out of range", shard)
	}
	if n == len(data) {
		return 0, 0, ErrTruncated
	}
	if data[n] == tagBatchMsg {
		return 0, 0, errBareBatch
	}
	return uint32(shard), n, nil
}

// readShardItems decodes count bare items, (shard index, message) pairs.
func readShardItems(data []byte, count uint64, depth int) ([]protocol.ShardItem, int, error) {
	n := 0
	var items []protocol.ShardItem
	if count > 0 {
		items = make([]protocol.ShardItem, 0, capHint(count, data))
	}
	for i := uint64(0); i < count; i++ {
		shard, m, err := readShardIndex(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		inner, m2, err := decodeMsg(data[n:], depth+1)
		if err != nil {
			return nil, 0, err
		}
		n += m2
		items = append(items, protocol.ShardItem{Shard: shard, Msg: inner})
	}
	return items, n, nil
}

// readShardedMsg parses a sharded frame, any variant, after its tag: the
// header, the keyed run, the bare items.
func readShardedMsg(tag byte, data []byte, depth int) (protocol.Msg, int, error) {
	h, n, err := readShardedHeader(tag, data, nil)
	if err != nil {
		return nil, 0, err
	}
	var digests []uint64
	if h.digests != nil {
		digests = make([]uint64, len(h.digests)/8)
		for i := range digests {
			digests[i] = binary.BigEndian.Uint64(h.digests[8*i:])
		}
	}
	keyed, m, err := readRun(data[n:], h.keyed)
	if err != nil {
		return nil, 0, err
	}
	n += m
	bare, m, err := readShardItems(data[n:], h.bare, depth)
	if err != nil {
		return nil, 0, err
	}
	return protocol.NewFrameMsg(keyed, bare, digests, h.link), n + m, nil
}

func readMsgBody(tag byte, data []byte, depth int) (protocol.Msg, int, error) {
	if isShardedTag(tag) {
		return readShardedMsg(tag, data, depth)
	}
	n := 0
	switch tag {
	case tagDeltaMsg:
		s, m, err := readState(data[n:], 0, nil)
		if err != nil {
			return nil, 0, err
		}
		return protocol.NewDeltaMsg(s), n + m, nil

	case tagAckedDeltaMsg:
		seqs, m, err := readSeqs(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		s, m2, err := readState(data[n:], 0, nil)
		if err != nil {
			return nil, 0, err
		}
		return protocol.NewAckedDeltaMsg(s, seqs), n + m2, nil

	case tagBatchMsg:
		count, m, err := readUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		items, m, err := readRun(data[n:], count)
		if err != nil {
			return nil, 0, err
		}
		return protocol.BatchOf(items), n + m, nil

	case tagDigestMsg, tagDigestEchoMsg:
		count, m, err := readUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		// Each digest is a fixed 8-byte word, so a hostile count is
		// checked against the actual remaining bytes before allocating.
		if count > uint64(len(data)-n)/8 {
			return nil, 0, ErrTruncated
		}
		var digests []uint64
		if count > 0 {
			digests = make([]uint64, count)
			for i := range digests {
				digests[i] = binary.BigEndian.Uint64(data[n:])
				n += 8
			}
		}
		if len(data) <= n {
			return nil, 0, ErrTruncated
		}
		if data[n] != 0 {
			return nil, 0, fmt.Errorf("codec: digest message with a shard-request list")
		}
		dm := protocol.NewDigestMsg(digests)
		dm.Echo = tag == tagDigestEchoMsg
		return dm, n + 1, nil

	case tagHelloMsg:
		// The wire version and the shard count, neither truncated into range.
		var fixed [2]uint32
		for i := range fixed {
			v, m, err := readUvarint(data[n:])
			if err != nil {
				return nil, 0, err
			}
			if v > math.MaxUint32 {
				return nil, 0, fmt.Errorf("codec: hello field %d out of range", v)
			}
			fixed[i] = uint32(v)
			n += m
		}
		// A version 1 hello has no incarnation. It decodes all the same, so
		// that the receiver refuses it by its version, not by its bytes.
		var inc uint32
		if fixed[0] >= 2 {
			v, m, err := readIncarnation(data[n:])
			if err != nil {
				return nil, 0, err
			}
			inc = v
			n += m
		}
		reaches, m, err := readStringList(data[n:])
		if err != nil {
			return nil, 0, err
		}
		return protocol.NewHelloMsg(fixed[0], fixed[1], inc, reaches), n + m, nil

	case tagTreeMsg:
		return readTreeMsg(data)

	default:
		return nil, 0, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
}

// The two roles of a TreeMsg on the wire: a close lists node indices, a
// push follows each with the TreeFanout hashes of the node's children.
const (
	treeClose = 0
	treePush  = 1
)

// readTreeMsg parses a TreeMsg's body. The level bounds every node index
// that follows — tree geometry is a protocol constant, so a level outside
// the tree is corrupt on its face, exactly like an oversized shard index,
// and an index at or beyond the level's node count is rejected, never
// truncated into the valid range — and a hostile node count is checked
// against the bytes that remain before anything is allocated.
func readTreeMsg(data []byte) (protocol.Msg, int, error) {
	shard, n, err := readUvarint(data)
	if err != nil {
		return nil, 0, err
	}
	if shard > math.MaxUint32 {
		return nil, 0, fmt.Errorf("codec: shard index %d out of range", shard)
	}
	if len(data) < n+2 {
		return nil, 0, ErrTruncated
	}
	level, role := data[n], data[n+1]
	if role > treePush {
		return nil, 0, fmt.Errorf("codec: tree role %d unknown", role)
	}
	n += 2
	// A push follows each node index with the hashes of the node's
	// children, one level down, so it stops a level short.
	push := role == treePush
	maxLevel, hashBytes := protocol.TreeDepth, 0
	if push {
		maxLevel--
		hashBytes = 8 * protocol.TreeFanout
	}
	if int(level) > maxLevel {
		return nil, 0, fmt.Errorf("codec: tree level %d out of range", level)
	}
	count, m, err := readUvarint(data[n:])
	if err != nil {
		return nil, 0, err
	}
	n += m
	if push && count == 0 {
		return nil, 0, fmt.Errorf("codec: tree push without nodes")
	}
	// A node is at least one byte of index, and its hashes.
	if count > uint64(len(data)-n)/uint64(1+hashBytes) {
		return nil, 0, ErrTruncated
	}
	var nodes []uint32
	var hashes []uint64
	if count > 0 {
		nodes = make([]uint32, 0, count)
		if push {
			hashes = make([]uint64, 0, count*protocol.TreeFanout)
		}
	}
	for i := uint64(0); i < count; i++ {
		idx, m, err := readUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		if idx >= uint64(protocol.TreeNodesAt(int(level))) {
			return nil, 0, fmt.Errorf("codec: tree node %d out of range at level %d", idx, level)
		}
		n += m
		if len(data)-n < hashBytes {
			return nil, 0, ErrTruncated
		}
		nodes = append(nodes, uint32(idx))
		for end := n + hashBytes; n < end; n += 8 {
			hashes = append(hashes, binary.BigEndian.Uint64(data[n:]))
		}
	}
	return protocol.NewTreeMsg(uint32(shard), level, nodes, hashes), n, nil
}
