package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"crdtsync/internal/lattice"
)

// This file defines the on-disk snapshot record format the transport's
// per-shard snapshotter writes and restores. A snapshot file is a small
// manifest header plus the shard's (key, state) records, reusing the
// canonical wire encoding for states so equal contents produce equal
// bytes on disk exactly as they do on the wire:
//
//	"CSNP" | version | header frame | data frame | data frame | ...
//
// Every frame is length-prefixed and individually checksummed —
//
//	uvarint payloadLen | payload | 4-byte big-endian CRC-32C
//
// — so a torn write, bit rot, or truncation is detected before any
// record in the damaged region is parsed. The header payload carries the
// manifest (shard index, shard count, key count); each data frame
// payload is a run of appendString(key) + appendState(state) records,
// cut at ~64 KiB so corruption costs one frame's worth of verification,
// not the file. Decoding applies the same hostile-input discipline as
// the wire decoders: every length is checked against the bytes that
// remain, and no allocation is sized by unverified wire-declared counts.

// SnapshotVersion is the current snapshot file format version.
const SnapshotVersion = 1

const (
	snapshotMagic = "CSNP"
	// snapshotFrameTarget is the data-frame cut point; a record that
	// lands past it seals the frame, so frames exceed it by at most one
	// record.
	snapshotFrameTarget = 64 << 10
	// maxSnapshotShards bounds the manifest's shard count; the transport
	// caps shard counts orders of magnitude below this.
	maxSnapshotShards = 1 << 20
)

// ErrSnapshotCorrupt reports a snapshot file that failed validation —
// bad magic, unknown version, a frame whose checksum or length does not
// match, or records that disagree with the manifest. Restore treats the
// whole file as absent: a torn snapshot contributes nothing rather than
// a silently partial shard.
var ErrSnapshotCorrupt = errors.New("codec: snapshot corrupt")

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// SnapshotInfo is the decoded manifest of one snapshot file.
type SnapshotInfo struct {
	// Shard is the shard index the file was written for. Restore treats
	// it as provenance, not routing: keys are re-routed by hash, so a
	// store restarted with a different shard count still restores.
	Shard int
	// Shards is the writer's shard count.
	Shards int
	// Keys is the number of records in the file; decoding verifies it.
	Keys int
}

// SnapshotWriter serializes one shard's objects into the snapshot file
// format. Records are appended in the order given (the transport passes
// them in sorted key order, matching the digest discipline, though the
// decoder does not require it).
type SnapshotWriter struct {
	buf   []byte
	frame []byte
}

// NewSnapshotWriter starts a snapshot file for the given shard manifest.
func NewSnapshotWriter(shard, shards, keys int) *SnapshotWriter {
	w := &SnapshotWriter{}
	w.buf = append(w.buf, snapshotMagic...)
	w.buf = append(w.buf, SnapshotVersion)
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(shard))
	hdr = binary.AppendUvarint(hdr, uint64(shards))
	hdr = binary.AppendUvarint(hdr, uint64(keys))
	w.buf = appendSnapshotFrame(w.buf, hdr)
	return w
}

func appendSnapshotFrame(b, payload []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(payload, snapshotCRC))
}

// Add appends one object record. It panics on a state without a wire
// encoding, like Encode — snapshotting an unencodable state is the same
// programming error as shipping one.
func (w *SnapshotWriter) Add(key string, st lattice.State) {
	w.frame = appendString(w.frame, key)
	w.frame = appendState(w.frame, st, nil)
	if len(w.frame) >= snapshotFrameTarget {
		w.buf = appendSnapshotFrame(w.buf, w.frame)
		w.frame = w.frame[:0]
	}
}

// Bytes seals the file and returns its encoded form.
func (w *SnapshotWriter) Bytes() []byte {
	if len(w.frame) > 0 {
		w.buf = appendSnapshotFrame(w.buf, w.frame)
		w.frame = w.frame[:0]
	}
	return w.buf
}

// readSnapshotFrame validates and returns the next frame's payload and
// the total bytes it occupied.
func readSnapshotFrame(data []byte) ([]byte, int, error) {
	l, n, err := readUvarint(data)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: truncated frame length", ErrSnapshotCorrupt)
	}
	rest := uint64(len(data) - n)
	if l > rest || rest-l < 4 {
		return nil, 0, fmt.Errorf("%w: frame length %d exceeds remaining %d bytes", ErrSnapshotCorrupt, l, rest)
	}
	payload := data[n : n+int(l)]
	sum := binary.BigEndian.Uint32(data[n+int(l):])
	if crc32.Checksum(payload, snapshotCRC) != sum {
		return nil, 0, fmt.Errorf("%w: frame checksum mismatch", ErrSnapshotCorrupt)
	}
	return payload, n + int(l) + 4, nil
}

// DecodeSnapshot validates a snapshot file and streams its records to
// fn, returning the manifest. Each frame's checksum is verified before
// any record inside it is parsed, and the total record count must match
// the manifest, so fn never sees records from a damaged region — but a
// caller that must treat a corrupt file as wholly absent (the restore
// path) should still buffer records and apply them only after
// DecodeSnapshot returns nil. A non-nil error from fn aborts the decode
// and is returned as is.
func DecodeSnapshot(data []byte, fn func(key string, st lattice.State) error) (SnapshotInfo, error) {
	var info SnapshotInfo
	if len(data) < len(snapshotMagic)+1 || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return info, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	if v := data[len(snapshotMagic)]; v != SnapshotVersion {
		return info, fmt.Errorf("%w: unsupported version %d", ErrSnapshotCorrupt, v)
	}
	rest := data[len(snapshotMagic)+1:]
	hdr, n, err := readSnapshotFrame(rest)
	if err != nil {
		return info, err
	}
	rest = rest[n:]
	var fields [3]uint64
	for i := range fields {
		v, vn, err := readUvarint(hdr)
		if err != nil {
			return info, fmt.Errorf("%w: truncated manifest", ErrSnapshotCorrupt)
		}
		fields[i] = v
		hdr = hdr[vn:]
	}
	if len(hdr) != 0 {
		return info, fmt.Errorf("%w: %d trailing manifest bytes", ErrSnapshotCorrupt, len(hdr))
	}
	shard, shards, keys := fields[0], fields[1], fields[2]
	// Each record costs at least one key-length byte and one state tag,
	// so the manifest cannot honestly promise more records than half the
	// remaining bytes — reject the lie before counting records against it.
	if shards == 0 || shards > maxSnapshotShards || shard >= shards || keys > uint64(len(rest))/2 {
		return info, fmt.Errorf("%w: implausible manifest (shard %d of %d, %d keys)", ErrSnapshotCorrupt, shard, shards, keys)
	}
	info = SnapshotInfo{Shard: int(shard), Shards: int(shards), Keys: int(keys)}
	total := 0
	for len(rest) > 0 {
		payload, n, err := readSnapshotFrame(rest)
		if err != nil {
			return info, err
		}
		rest = rest[n:]
		for len(payload) > 0 {
			key, kn, err := readString(payload)
			if err != nil {
				return info, fmt.Errorf("%w: record key: %v", ErrSnapshotCorrupt, err)
			}
			payload = payload[kn:]
			st, sn, err := readState(payload, 0, nil)
			if err != nil {
				return info, fmt.Errorf("%w: record state: %v", ErrSnapshotCorrupt, err)
			}
			payload = payload[sn:]
			if total++; total > info.Keys {
				return info, fmt.Errorf("%w: more records than the manifest's %d", ErrSnapshotCorrupt, info.Keys)
			}
			if err := fn(key, st); err != nil {
				return info, err
			}
		}
	}
	if total != info.Keys {
		return info, fmt.Errorf("%w: %d records, manifest says %d", ErrSnapshotCorrupt, total, info.Keys)
	}
	return info, nil
}
