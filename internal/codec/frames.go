package codec

import (
	"encoding/binary"

	"crdtsync/internal/protocol"
)

// Incremental frame assembly. The transport's single-pass frame packer
// builds bounded ShardedMsg frames out of independently encoded pieces:
// each shard item (and, when one shard's batch alone overflows a frame,
// each object message inside it) is encoded exactly once, and frames are
// assembled as header + concatenated pieces. The helpers here expose the
// two things that requires — per-piece encode-to-buffer and exact header
// sizes — so the packer never re-encodes a piece to learn what it would
// cost. AppendMsg for ShardedMsg/BatchMsg is defined in terms of
// these same helpers, which keeps packed frames byte-identical to what
// EncodeMsg would produce for the equivalent message.

// SizeUvarint returns the encoded length of v as a uvarint.
func SizeUvarint(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendShardItem appends one shard item's wire encoding (shard index +
// inner message) — the unit the frame packer accumulates.
func AppendShardItem(b []byte, it protocol.ShardItem) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(it.Shard))
	return appendMsg(b, it.Msg)
}

// AppendObjectMsg appends one object message's wire encoding (key + inner
// message) — the sub-unit used when a single shard's batch must split
// across frames.
func AppendObjectMsg(b []byte, it protocol.ObjectMsg) ([]byte, error) {
	b = appendString(b, it.Key)
	return appendMsg(b, it.Inner)
}

// AppendShardedHeader appends a ShardedMsg frame header: tag, the
// optional piggybacked digest vector, and the item count. The item
// encodings (AppendShardItem) follow it.
func AppendShardedHeader(b []byte, digests []uint64, count int) []byte {
	if digests == nil {
		b = append(b, tagShardedMsg)
		return binary.AppendUvarint(b, uint64(count))
	}
	b = append(b, tagShardedDigestMsg)
	b = binary.AppendUvarint(b, uint64(len(digests)))
	for _, d := range digests {
		// Fixed 8-byte words, as in DigestMsg: uvarint averages >9 bytes
		// on uniformly random 64-bit hash values.
		b = binary.BigEndian.AppendUint64(b, d)
	}
	return binary.AppendUvarint(b, uint64(count))
}

// ShardedHeaderSize returns the exact encoded length of the header
// AppendShardedHeader would write — what a packer adds to its accumulated
// piece bytes to know a candidate frame's final size.
func ShardedHeaderSize(digests []uint64, count int) int {
	n := 1 + SizeUvarint(uint64(count))
	if digests != nil {
		n += SizeUvarint(uint64(len(digests))) + 8*len(digests)
	}
	return n
}

// AppendBatchHeader appends a BatchMsg header (tag, item count); the item
// encodings (AppendObjectMsg) follow it.
func AppendBatchHeader(b []byte, count int) []byte {
	b = append(b, tagBatchMsg)
	return binary.AppendUvarint(b, uint64(count))
}

// BatchHeaderSize returns the exact encoded length of the header
// AppendBatchHeader would write.
func BatchHeaderSize(count int) int {
	return 1 + SizeUvarint(uint64(count))
}

// splitSharded parses an encoded plain ShardedMsg into its item count and
// raw item bytes. ok is false for any other encoding (including the
// digest-carrying variant, whose vector must not survive a merge — it
// advertises one instant's shard states, not a range).
func splitSharded(d []byte) (count uint64, items []byte, ok bool) {
	if len(d) == 0 || d[0] != tagShardedMsg {
		return 0, nil, false
	}
	cnt, n, err := readUvarint(d[1:])
	if err != nil {
		return 0, nil, false
	}
	return cnt, d[1+n:], true
}

// CanMergeSharded reports whether d is a plain ShardedMsg encoding — the
// only kind of frame drain coalescing may merge. It is the exact
// admission predicate of MergeSharded, so a set of frames that each pass
// it always merges.
func CanMergeSharded(d []byte) bool {
	_, _, ok := splitSharded(d)
	return ok
}

// MergeSharded concatenates encoded plain ShardedMsg frames into one in a
// single pass, without re-encoding any item: item counts are summed and
// the item byte regions appended. The peer write pipeline uses it to
// coalesce queued frames to the same peer on drain. The merged encoding
// is never longer than the inputs combined (per-frame tag bytes are saved
// and uvarint(Σx) never exceeds Σ uvarint(x)), so a size check on the
// summed input lengths is a safe admission bound. Returns ok=false when
// any input is not a plain sharded frame (digest-carrying frames,
// heartbeats, and single-object node frames never merge).
func MergeSharded(frames [][]byte) ([]byte, bool) {
	if len(frames) == 0 {
		return nil, false
	}
	var (
		count uint64
		total int
	)
	parts := make([][]byte, 0, len(frames))
	for _, f := range frames {
		n, items, ok := splitSharded(f)
		if !ok {
			return nil, false
		}
		count += n
		total += len(items)
		parts = append(parts, items)
	}
	out := make([]byte, 0, 1+SizeUvarint(count)+total)
	out = append(out, tagShardedMsg)
	out = binary.AppendUvarint(out, count)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, true
}
