package codec

import (
	"encoding/binary"

	"crdtsync/internal/protocol"
)

// Incremental frame assembly. The transport's single-pass frame packer
// builds bounded ShardedMsg frames out of independently encoded pieces:
// each keyed item, written against the key before it in the frame's run
// and the replica names the run has spelled (AppendLinkObjectMsg), and
// each bare item (AppendShardItem) is encoded once, and frames are
// assembled as header + keyed run + bare items. The item that opens a
// frame's run is written whole, its key and its names, so the one a split
// puts first in the next frame is encoded a second time. The helpers here expose
// the two things that requires — per-piece encode-to-buffer and exact
// header sizes — so the packer never re-encodes a piece to learn what it
// would cost. AppendMsg for a ShardedMsg is defined in terms of these same
// helpers, which keeps packed frames byte-identical to what EncodeMsg
// would produce for the equivalent message.

// SizeUvarint returns the encoded length of v as a uvarint.
func SizeUvarint(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendShardItem appends one shard item's encoding: the shard index, then
// the message. In a frame it is a bare item.
func AppendShardItem(b []byte, it protocol.ShardItem) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(it.Shard))
	return appendMsg(b, it.Msg)
}

// AppendObjectMsg appends one object message's wire encoding, a keyed
// item: the key, then a δ-group as its state alone (a map field's as
// tagKeyEntry and the field's value), or an AckedDeltaMsg under its tag.
// prev is the key of the item before it in its run, which the key is
// written against and must be below, and nil for a run's first item, whose
// key is written whole. nt is the run's table of replica names, which the
// δ-group's names are written against and which it adds the ones it spells
// to; a run's first item takes an empty one.
func AppendObjectMsg(b []byte, prev *string, it protocol.ObjectMsg, nt *Names) ([]byte, error) {
	return appendObjectMsg(b, prev, it, false, nt)
}

// AppendLinkObjectMsg is AppendObjectMsg for a frame that is acknowledged
// as a whole, by the sequence number in its header: an AckedDeltaMsg — the
// keyed δ-group a sender records against the frame's number — is written as
// the plain δ-group a DeltaMsg is. Its entry seqs stay behind, in the
// sender's record of the frame.
func AppendLinkObjectMsg(b []byte, prev *string, it protocol.ObjectMsg, nt *Names) ([]byte, error) {
	return appendObjectMsg(b, prev, it, true, nt)
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

// itemCounts is the word that ends a frame header: the keyed run's length,
// shifted left one bit, and in the low bit whether bare items follow the
// run — their count after the word, never 0.
func itemCounts(keyed, bare int) uint64 {
	w := uint64(keyed) << 1
	if bare > 0 {
		w |= 1
	}
	return w
}

// AppendShardedHeader appends a ShardedMsg frame header: tag, the link
// header and the piggybacked digest vector where present, and the item
// counts, keyed and bare (itemCounts). The keyed run (AppendObjectMsg or,
// behind a numbered header, AppendLinkObjectMsg) follows it, then the bare
// items (AppendShardItem). Without a link header the tag is that of
// one of the two plain variants, tagShardedMsg and tagShardedDigestMsg.
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
func AppendShardedHeader(b []byte, link protocol.LinkHeader, digests []uint64, keyed, bare int) []byte {
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
	b = binary.AppendUvarint(b, itemCounts(keyed, bare))
	if bare > 0 {
		b = binary.AppendUvarint(b, uint64(bare))
	}
	return b
}

// ShardedHeaderSize returns the exact encoded length of the header
// AppendShardedHeader would write — what a packer adds to its accumulated
// piece bytes to know a candidate frame's final size.
func ShardedHeaderSize(link protocol.LinkHeader, digests []uint64, keyed, bare int) int {
	n := 1 + SizeUvarint(itemCounts(keyed, bare))
	if bare > 0 {
		n += SizeUvarint(uint64(bare))
	}
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
