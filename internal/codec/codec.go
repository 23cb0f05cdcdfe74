// Package codec provides a compact, self-describing binary encoding for
// the lattice states shipped by the synchronization protocols. It backs
// the byte-level accounting of the evaluation with a real wire format and
// lets the examples persist or transport states.
//
// The format is type-tagged: one tag byte, then a type-specific body using
// unsigned varints for lengths and counters; map entries and set elements
// are written in sorted order so encodings are canonical (equal states
// encode to equal bytes). Nested states (map values) recurse. Unknown tags
// fail decoding with an error, never a panic.
//
// Of the protocol messages, the ones a store puts on a connection have a
// wire form (msg.go): DeltaMsg, AckedDeltaMsg, BatchMsg, the ShardedMsg
// frame variants (plain, with a digest vector, and one tag per shape of
// link header), DigestMsg, TreeMsg and HelloMsg. StateMsg,
// AckMsg, SBDigestMsg, SBDeltasMsg and OpsMsg have none — they travel in
// memory, under internal/netsim and inside the acked engine — and their
// tags are reserved. Each message has one encoder (appendMsg) and one
// decoder (decodeMsg); UnpackFrame (unpack.go) reads a frame's items
// through that decoder.
//
// A keyed item — the key, then one object's message — says each thing
// once (wire version 3): a δ-group is its state alone,
// with no DeltaMsg tag, since state tags (1–10, and tagKeyEntry's 11) and
// message tags (64 on) do not overlap, and a map field's δ-group, the
// one-entry map {key ↦ v} under its own key, is tagKeyEntry and v. An
// AckedDeltaMsg keeps its tag.
// One writer (appendObjectMsg) and one reader (readObjectMsg) hold the
// rule, and the reader refuses the second spellings: a DeltaMsg tag, and
// the long form of a map field. States outside a keyed item — a bare
// DeltaMsg, a map's values, a snapshot record — keep the context-free
// encoding.
//
// A frame writes all of its keyed items as one run in strictly ascending
// key order, with no shard index: the receiver routes each by its key
// (wire version 5; a standalone BatchMsg is a run too). The run's first
// item writes the key whole; every later one writes the length of the
// prefix its key shares with the key before it, at most maxShared, then
// the rest (appendKey, readKey; wire version 4). A key that shares fewer
// than minShared bytes with the one before it shares none: it is written
// whole. The shared length has one value, the longest it can be under
// those two bounds, and a key must be above the one before it. Every
// frame's run is a chain of its own: the packer starts a new one in every
// frame of a split pass. Snapshot records keep their keys whole.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/vclock"
)

// Type tags. Stable on the wire: append, never renumber.
const (
	tagMaxInt byte = iota + 1
	tagFlag
	tagSet
	tagMap
	tagGCounter
	tagPNCounter
	tagGSet
	tagTwoPSet
	tagLWW
	tagAWSet
	// tagKeyEntry is no state of its own. Inside a keyed item it is the
	// one-entry map {item key ↦ value}, a map field's δ-group, followed by
	// the value alone (readObjectMsg); everywhere else it is refused.
	tagKeyEntry
)

// ErrUnknownTag reports an unrecognized type tag in the input.
var ErrUnknownTag = errors.New("codec: unknown type tag")

// ErrTruncated reports input that ended mid-value.
var ErrTruncated = errors.New("codec: truncated input")

// Encode serializes a state. It panics on state types without a wire
// format (the generic combinators Pair/LexPair/Sum/Maximals, whose shape
// is application-specific); all concrete CRDT types round-trip.
func Encode(s lattice.State) []byte {
	return appendState(nil, s)
}

// AppendState is Encode with a caller-owned scratch buffer: it appends
// the state's serialization to b and returns the extended slice. Hot
// paths that encode many states transiently (content digests, Merkle
// leaf hashes) reuse one buffer across keys instead of allocating per
// key. The bytes written are identical to Encode's.
func AppendState(b []byte, s lattice.State) []byte {
	return appendState(b, s)
}

// Decode deserializes one state, returning it and the number of bytes
// consumed.
func Decode(data []byte) (lattice.State, int, error) {
	return readState(data)
}

// maxStateNesting bounds state nesting during decoding (maps of maps);
// a hostile chain of map prefixes must fail with an error instead of
// exhausting the goroutine stack.
const maxStateNesting = 16

// ErrNestingTooDeep reports input nested beyond the decoder's limit.
var ErrNestingTooDeep = errors.New("codec: nesting too deep")

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStringList(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func readUvarint(data []byte) (uint64, int, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, ErrTruncated
	}
	return v, n, nil
}

// maxCapHint caps the slice capacity preallocated from a wire-declared
// element count (append grows larger results amortized); combined with the
// remaining-bytes bound below it keeps one hostile frame from forcing a
// multi-gigabyte allocation.
const maxCapHint = 1 << 16

// capHint bounds a wire-declared element count by the bytes actually
// remaining (each element occupies at least one byte on the wire, so a
// count beyond that is certainly corrupt and decoding will fail with
// ErrTruncated) and by maxCapHint, so a hostile count can never drive a
// huge allocation or a makeslice panic.
func capHint(count uint64, remaining []byte) int {
	if count > uint64(len(remaining)) {
		count = uint64(len(remaining))
	}
	if count > maxCapHint {
		count = maxCapHint
	}
	return int(count)
}

func readString(data []byte) (string, int, error) {
	l, n, err := readUvarint(data)
	if err != nil {
		return "", 0, err
	}
	if uint64(len(data)-n) < l {
		return "", 0, ErrTruncated
	}
	return string(data[n : n+int(l)]), n + int(l), nil
}

func readStringList(data []byte) ([]string, int, error) {
	count, n, err := readUvarint(data)
	if err != nil {
		return nil, 0, err
	}
	out := make([]string, 0, capHint(count, data[n:]))
	for i := uint64(0); i < count; i++ {
		s, m, err := readString(data[n:])
		if err != nil {
			return nil, 0, err
		}
		out = append(out, s)
		n += m
	}
	return out, n, nil
}

func appendState(b []byte, s lattice.State) []byte {
	switch v := s.(type) {
	case *lattice.MaxInt:
		b = append(b, tagMaxInt)
		return binary.AppendUvarint(b, v.V)

	case *lattice.Flag:
		b = append(b, tagFlag)
		if v.V {
			return append(b, 1)
		}
		return append(b, 0)

	case *lattice.Set:
		b = append(b, tagSet)
		return appendStringList(b, v.Sorted())

	case *lattice.Map:
		b = append(b, tagMap)
		entries := v.Sorted()
		b = binary.AppendUvarint(b, uint64(len(entries)))
		for _, e := range entries {
			b = appendString(b, e.Key)
			b = appendState(b, e.Val)
		}
		return b

	case *crdt.GCounter:
		b = append(b, tagGCounter)
		b = binary.AppendUvarint(b, uint64(v.Elements()))
		v.Range(func(id string, count uint64) bool { // ascending by id
			b = appendString(b, id)
			b = binary.AppendUvarint(b, count)
			return true
		})
		return b

	case *crdt.PNCounter:
		b = append(b, tagPNCounter)
		type entry struct {
			id       string
			inc, dec uint64
		}
		var entries []entry
		v.Range(func(id string, inc, dec uint64) bool {
			entries = append(entries, entry{id, inc, dec})
			return true
		})
		sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
		b = binary.AppendUvarint(b, uint64(len(entries)))
		for _, e := range entries {
			b = appendString(b, e.id)
			b = binary.AppendUvarint(b, e.inc)
			b = binary.AppendUvarint(b, e.dec)
		}
		return b

	case *crdt.GSet:
		b = append(b, tagGSet)
		return appendStringList(b, v.Sorted())

	case *crdt.TwoPSet:
		b = append(b, tagTwoPSet)
		b = appendStringList(b, v.Added())
		return appendStringList(b, v.Removed())

	case *crdt.LWWRegister:
		b = append(b, tagLWW)
		b = binary.AppendUvarint(b, v.TS)
		b = appendString(b, v.Writer)
		return appendString(b, v.Val)

	case *crdt.AWSet:
		b = append(b, tagAWSet)
		type atom struct {
			elem string
			dot  vclock.Dot
		}
		var atoms []atom
		live := make(map[vclock.Dot]struct{})
		v.RangeLive(func(elem string, d vclock.Dot) bool {
			atoms = append(atoms, atom{elem, d})
			live[d] = struct{}{}
			return true
		})
		v.RangeContext(func(d vclock.Dot) bool {
			if _, ok := live[d]; !ok {
				atoms = append(atoms, atom{"", d})
			}
			return true
		})
		sort.Slice(atoms, func(i, j int) bool {
			if atoms[i].dot.Actor != atoms[j].dot.Actor {
				return atoms[i].dot.Actor < atoms[j].dot.Actor
			}
			if atoms[i].dot.Seq != atoms[j].dot.Seq {
				return atoms[i].dot.Seq < atoms[j].dot.Seq
			}
			return atoms[i].elem < atoms[j].elem
		})
		b = binary.AppendUvarint(b, uint64(len(atoms)))
		for _, a := range atoms {
			b = appendString(b, a.elem)
			b = appendString(b, a.dot.Actor)
			b = binary.AppendUvarint(b, a.dot.Seq)
		}
		return b

	default:
		panic(fmt.Sprintf("codec: no wire format for %T", s))
	}
}

func readState(data []byte) (lattice.State, int, error) {
	return readStateDepth(data, 0)
}

func readStateDepth(data []byte, depth int) (lattice.State, int, error) {
	if depth >= maxStateNesting {
		return nil, 0, ErrNestingTooDeep
	}
	if len(data) == 0 {
		return nil, 0, ErrTruncated
	}
	tag, body := data[0], data[1:]
	s, n, err := readBody(tag, body, depth)
	if err != nil {
		return nil, 0, err
	}
	return s, n + 1, nil
}

func readBody(tag byte, data []byte, depth int) (lattice.State, int, error) {
	switch tag {
	case tagMaxInt:
		v, n, err := readUvarint(data)
		if err != nil {
			return nil, 0, err
		}
		return lattice.NewMaxInt(v), n, nil

	case tagFlag:
		if len(data) < 1 {
			return nil, 0, ErrTruncated
		}
		return lattice.NewFlag(data[0] == 1), 1, nil

	case tagSet:
		elems, n, err := readStringList(data)
		if err != nil {
			return nil, 0, err
		}
		return lattice.NewSet(elems...), n, nil

	case tagMap:
		count, n, err := readUvarint(data)
		if err != nil {
			return nil, 0, err
		}
		m := lattice.NewMap()
		for i := uint64(0); i < count; i++ {
			k, kn, err := readString(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += kn
			v, vn, err := readStateDepth(data[n:], depth+1)
			if err != nil {
				return nil, 0, err
			}
			n += vn
			m.Set(k, v)
		}
		return m, n, nil

	case tagGCounter:
		count, n, err := readUvarint(data)
		if err != nil {
			return nil, 0, err
		}
		c := crdt.NewGCounter()
		for i := uint64(0); i < count; i++ {
			id, m, err := readString(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m
			v, m2, err := readUvarint(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m2
			if v > 0 {
				c.Inc(id, v)
			}
		}
		return c, n, nil

	case tagPNCounter:
		count, n, err := readUvarint(data)
		if err != nil {
			return nil, 0, err
		}
		c := crdt.NewPNCounter()
		for i := uint64(0); i < count; i++ {
			id, m, err := readString(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m
			inc, m2, err := readUvarint(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m2
			dec, m3, err := readUvarint(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m3
			if inc > 0 {
				c.Inc(id, inc)
			}
			if dec > 0 {
				c.Dec(id, dec)
			}
		}
		return c, n, nil

	case tagGSet:
		elems, n, err := readStringList(data)
		if err != nil {
			return nil, 0, err
		}
		return crdt.NewGSet(elems...), n, nil

	case tagTwoPSet:
		added, n, err := readStringList(data)
		if err != nil {
			return nil, 0, err
		}
		removed, m, err := readStringList(data[n:])
		if err != nil {
			return nil, 0, err
		}
		s := crdt.NewTwoPSet()
		for _, e := range added {
			s.Add(e)
		}
		for _, e := range removed {
			s.Remove(e)
		}
		return s, n + m, nil

	case tagLWW:
		ts, n, err := readUvarint(data)
		if err != nil {
			return nil, 0, err
		}
		w, m, err := readString(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m
		v, m2, err := readString(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += m2
		return &crdt.LWWRegister{TS: ts, Writer: w, Val: v}, n, nil

	case tagAWSet:
		count, n, err := readUvarint(data)
		if err != nil {
			return nil, 0, err
		}
		s := crdt.NewAWSet()
		for i := uint64(0); i < count; i++ {
			elem, m, err := readString(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m
			actor, m2, err := readString(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m2
			seq, m3, err := readUvarint(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m3
			s.Merge(crdt.NewAWSetAtom(elem, vclock.Dot{Actor: actor, Seq: seq}))
		}
		return s, n, nil

	default:
		return nil, 0, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
}
