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

// AppendObjectMsg appends one object message's wire encoding, a keyed
// item: the key, then a δ-group as its state alone (a map field's as
// tagKeyEntry and the field's value), or an AckedDeltaMsg under its tag.
// It is the sub-unit used when a single shard's batch must split across
// frames.
func AppendObjectMsg(b []byte, it protocol.ObjectMsg) ([]byte, error) {
	return appendObjectMsg(b, it, false)
}

// AppendLinkShardItem is AppendShardItem for a frame that is acknowledged
// as a whole, by the sequence number in its header: an AckedDeltaMsg in a
// batch — the keyed δ-group a sender records against the frame's number —
// is written as the plain δ-group a DeltaMsg is. Its entry seqs stay
// behind, in the sender's record of the frame. Everything else, an
// AckedDeltaMsg that is the whole item included, is written as
// AppendShardItem writes it.
func AppendLinkShardItem(b []byte, it protocol.ShardItem) ([]byte, error) {
	bm, ok := it.Msg.(*protocol.BatchMsg)
	if !ok {
		return AppendShardItem(b, it)
	}
	b = binary.AppendUvarint(b, uint64(it.Shard))
	b = AppendBatchHeader(b, len(bm.Items))
	for _, om := range bm.Items {
		var err error
		if b, err = AppendLinkObjectMsg(b, om); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// AppendLinkObjectMsg is AppendObjectMsg under the same rule.
func AppendLinkObjectMsg(b []byte, it protocol.ObjectMsg) ([]byte, error) {
	return appendObjectMsg(b, it, true)
}

// Link header flags: which fields follow the tag of a frame in the link
// block (tagLinkMsg-1+flags), in this order.
const (
	linkSeq byte = 1 << iota
	linkAck
	linkDigests
	linkRanges
)

// linkFlags returns the flags of a frame header, 0 when the link header is
// absent and the frame is one of the two plain variants.
func linkFlags(link *protocol.LinkHeader, digests []uint64) byte {
	var f byte
	if link.Seq.Seq != 0 {
		f |= linkSeq
	}
	if link.Ack.Inc != 0 {
		f |= linkAck
		if len(link.Ack.Ranges) > 0 {
			f |= linkRanges
		}
	}
	if f != 0 && digests != nil {
		f |= linkDigests
	}
	return f
}

// AppendShardedHeader appends a ShardedMsg frame header: tag, the link
// header and the piggybacked digest vector where present, and the item
// count. The item encodings (AppendShardItem or, behind a link header,
// AppendLinkShardItem) follow it. Without a link header the bytes are
// those of the two plain variants, tagShardedMsg and tagShardedDigestMsg.
//
// The linked variants, after the tag that names which fields follow:
//
//	seq:     sequence number, back (uvarints); the sender's incarnation
//	         is the connection's hello's
//	ack:     incarnation (4 bytes), cumulative mark (uvarint)
//	ranges:  range count (uvarint, 1 to protocol.MaxAckRanges), then per
//	         range the gap to the mark before it minus 2 and the range's
//	         length minus 1 (uvarints)
//	digests: word count (uvarint), 8-byte words
func AppendShardedHeader(b []byte, link protocol.LinkHeader, digests []uint64, count int) []byte {
	flags := linkFlags(&link, digests)
	switch {
	case flags != 0:
		b = append(b, tagLinkMsg-1+flags)
	case digests != nil:
		b = append(b, tagShardedDigestMsg)
	default:
		b = append(b, tagShardedMsg)
	}
	if flags&linkSeq != 0 {
		b = binary.AppendUvarint(b, link.Seq.Seq)
		b = binary.AppendUvarint(b, link.Seq.Back)
	}
	if flags&linkAck != 0 {
		b = binary.BigEndian.AppendUint32(b, link.Ack.Inc)
		b = binary.AppendUvarint(b, link.Ack.Cum)
	}
	if flags&linkRanges != 0 {
		b = binary.AppendUvarint(b, uint64(len(link.Ack.Ranges)))
		mark := link.Ack.Cum
		for _, r := range link.Ack.Ranges {
			b = binary.AppendUvarint(b, r.Lo-mark-2)
			b = binary.AppendUvarint(b, r.Hi-r.Lo)
			mark = r.Hi
		}
	}
	if digests != nil {
		b = binary.AppendUvarint(b, uint64(len(digests)))
		for _, d := range digests {
			// Fixed 8-byte words, as in DigestMsg: uvarint averages >9 bytes
			// on uniformly random 64-bit hash values.
			b = binary.BigEndian.AppendUint64(b, d)
		}
	}
	return binary.AppendUvarint(b, uint64(count))
}

// ShardedHeaderSize returns the exact encoded length of the header
// AppendShardedHeader would write — what a packer adds to its accumulated
// piece bytes to know a candidate frame's final size.
func ShardedHeaderSize(link protocol.LinkHeader, digests []uint64, count int) int {
	n := 1 + SizeUvarint(uint64(count))
	if digests != nil {
		n += SizeUvarint(uint64(len(digests))) + 8*len(digests)
	}
	flags := linkFlags(&link, digests)
	if flags&linkSeq != 0 {
		n += SizeUvarint(link.Seq.Seq) + SizeUvarint(link.Seq.Back)
	}
	if flags&linkAck != 0 {
		n += 4 + SizeUvarint(link.Ack.Cum)
	}
	if flags&linkRanges != 0 {
		n += SizeUvarint(uint64(len(link.Ack.Ranges)))
		mark := link.Ack.Cum
		for _, r := range link.Ack.Ranges {
			n += SizeUvarint(r.Lo-mark-2) + SizeUvarint(r.Hi-r.Lo)
			mark = r.Hi
		}
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
