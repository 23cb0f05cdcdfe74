// Package codec provides a compact, self-describing binary encoding for
// the lattice states shipped by the synchronization protocols. It backs
// the byte-level accounting of the evaluation with a real wire format and
// lets the examples persist or transport states.
//
// The format is type-tagged: one tag byte, then a type-specific body using
// unsigned varints for lengths and counters; map entries, set elements,
// counter entries and AW-set atoms are written in strictly ascending order
// so encodings are canonical (equal states encode to equal bytes). Nested
// states (map values) recurse. Unknown tags fail decoding with an error,
// never a panic.
//
// Every value has one spelling, and the decoders refuse the others: a
// uvarint in more bytes than it needs, a list out of order or naming a
// member twice, a counter entry of 0, a flag byte other than 0 or 1, a
// map entry with no value. So whatever a decoder accepts re-encodes to
// exactly the bytes it read — a state through Encode, a message through
// EncodeMsg, a frame through the packer's append functions (frames.go) —
// and each δ-group has one set of bytes on the wire, as its irredundant
// join decomposition is unique. What the encoders can write from a state
// in memory is never refused, so a snapshot, read through the same
// readers, still restores.
//
// Of the protocol messages, the ones a store puts on a connection have a
// wire form (msg.go): the sharded frame (plain, with a digest vector, and
// one tag per shape of link header), whose keyed items are δ-groups and
// whose bare items are messages; DigestMsg, TreeMsg and HelloMsg; and
// DeltaMsg and AckedDeltaMsg as bare items. A BatchMsg's standalone form
// is write-only. The full-state message, the per-object acknowledgement
// and the Scuttlebutt and op-based messages have none — they travel in
// memory, under internal/netsim and inside the acked engine — and their
// tags are reserved. A sharded frame has one reader, UnpackFrame
// (unpack.go); every other message has one, DecodeMsg.
//
// A keyed item — the key, then one object's δ-group — says each thing
// once (wire version 3): the δ-group is its state alone, with no message
// tag, since state tags (1–10, and the keyed forms 11–13) and message tags
// (64 on) do not overlap, and a map field's, the one-entry map {key ↦ v}
// under its own key, is tagKeyEntry and v. One writer (AppendKeyed)
// and one reader (readKeyed) hold the rule. States outside a keyed
// item — a bare DeltaMsg, a map's values, a snapshot record — keep the
// context-free encoding.
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
//
// Inside a keyed item a state says no more than its join-irreducible needs
// (wire version 6). A replica name — a GCounter's or PNCounter's entry id,
// an LWW register's writer, an AWSet's dot actor — is a uvarint whose low
// bit tells a spelling from a reference: the first use in a run spells the
// name, its length shifted left one bit and then its bytes, which for a
// name under 64 bytes is what a length and the bytes took before; every
// later use in the run is the number of that spelling shifted left one bit,
// plus one (Names, appendName, readName). A one-entry GCounter is
// tagCounterEntry, the name and the count, and a one-element GSet is
// tagSetElement and the element: neither writes a count of entries. The
// reader refuses a reference past the names the run has spelled, a second
// spelling of one it has, the long form of a one-entry counter or a
// one-element set, and a short-form counter of 0; outside a keyed item the
// two short forms are refused like tagKeyEntry. Names, like the key chain,
// belong to one run, so every frame still decodes alone; the packer that
// takes an item back out of a full frame takes back the names it spelled
// there. A standalone batch's acked items, bare items, Encode and
// AppendState, digests, Merkle leaves and snapshot records keep the
// context-free encoding.
package codec

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

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
	// the value alone (readKeyed); everywhere else it is refused.
	tagKeyEntry
	// tagCounterEntry and tagSetElement are the short forms of a one-entry
	// GCounter (its replica's name, then the count) and of a one-element
	// GSet (the element), with no count of entries. Inside a keyed item they
	// are the only spelling of those states; everywhere else they are
	// refused.
	tagCounterEntry
	tagSetElement
)

// ErrUnknownTag reports an unrecognized type tag in the input.
var ErrUnknownTag = errors.New("codec: unknown type tag")

// ErrTruncated reports input that ended mid-value.
var ErrTruncated = errors.New("codec: truncated input")

// Encode serializes a state. It panics on state types without a wire
// format (the generic combinators Pair/LexPair/Sum/Maximals, whose shape
// is application-specific); all concrete CRDT types round-trip.
func Encode(s lattice.State) []byte {
	return appendState(nil, s, nil)
}

// AppendState is Encode with a caller-owned scratch buffer: it appends
// the state's serialization to b and returns the extended slice. Hot
// paths that encode many states transiently (content digests, Merkle
// leaf hashes) reuse one buffer across keys instead of allocating per
// key. The bytes written are identical to Encode's.
func AppendState(b []byte, s lattice.State) []byte {
	return appendState(b, s, nil)
}

// maxStateNesting bounds state nesting during decoding (maps of maps);
// a hostile chain of map prefixes must fail with an error instead of
// exhausting the goroutine stack.
const maxStateNesting = 16

// ErrNestingTooDeep reports input nested beyond the decoder's limit.
var ErrNestingTooDeep = errors.New("codec: nesting too deep")

// errZeroEntry refuses a counter entry of 0: a counter holds no replica it
// has not counted (IncDelta panics on 0), so the encoder never writes one.
var errZeroEntry = errors.New("codec: a counter entry of 0")

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendStringList appends a count and the strings: a set's elements in
// ascending order, or a hello's reaches as given.
func appendStringList(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// readUvarint reads a uvarint as binary.AppendUvarint writes it: an
// overlong one, ending in a zero byte, is a second spelling of a shorter.
func readUvarint(data []byte) (uint64, int, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, ErrTruncated
	}
	if n > 1 && data[n-1] == 0 {
		return 0, 0, fmt.Errorf("codec: uvarint %d in %d bytes", v, n)
	}
	return v, n, nil
}

// errUnsorted refuses a list whose members are not in strictly ascending
// order — a set's elements, a map's keys, a counter's replicas, an
// AW-set's dots: the encoder writes each member once, in order, so any
// other order is a second spelling of the same state.
var errUnsorted = errors.New("codec: list not in strictly ascending order")

// ascends is the one check of a list's order: c compares the member before
// the one being read to it, and means nothing for a list's first.
func ascends(first bool, c int) error {
	if !first && c >= 0 {
		return errUnsorted
	}
	return nil
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

// Names is the table of replica names a keyed run has spelled: a
// GCounter's or PNCounter's entry ids, an LWW register's writer, an AWSet's
// dot actors. The first use of a name in a run spells it in full and gives
// it the next number; every later use is that number (appendName,
// readName). A decoder allocates each name once per run, and every state
// decoded from the run shares that string. The zero value is empty.
type Names struct {
	list  []string
	index map[string]int // list's positions, once it outgrows linearNames
}

// linearNames is the most names a table searches one by one. A run names
// its writers — two or three on a store's frame — so the map is built for
// hostile or unusual frames only.
const linearNames = 16

// Len returns how many names the table holds.
func (nt *Names) Len() int { return len(nt.list) }

// Truncate drops every name after the first n: a packer that takes an
// item back out of its frame takes back the names the item spelled.
func (nt *Names) Truncate(n int) {
	if nt.index != nil {
		for _, s := range nt.list[n:] {
			delete(nt.index, s)
		}
	}
	clear(nt.list[n:])
	nt.list = nt.list[:n]
}

// lookup returns name's number in nt: a string's, which the encoder
// names, or bytes', which the decoder reads.
func lookup[T string | []byte](nt *Names, name T) (int, bool) {
	if nt.index != nil {
		i, ok := nt.index[string(name)]
		return i, ok
	}
	for i, s := range nt.list {
		if s == string(name) {
			return i, true
		}
	}
	return 0, false
}

// add gives name the next number.
func (nt *Names) add(name string) {
	nt.list = append(nt.list, name)
	switch {
	case nt.index != nil:
		nt.index[name] = len(nt.list) - 1
	case len(nt.list) > linearNames:
		nt.index = make(map[string]int, 2*len(nt.list))
		for i, s := range nt.list {
			nt.index[s] = i
		}
	}
}

// appendName appends a replica name: against nt, the table of a keyed
// run, as a uvarint whose low bit is set for a reference — the name's
// number in the bits above — and clear for a spelling — the name's length
// above it, then its bytes. A name under 64 bytes spells itself in what
// appendString takes. Outside a keyed run (nt nil) it is appendString.
func appendName(b []byte, name string, nt *Names) []byte {
	if nt == nil {
		return appendString(b, name)
	}
	if i, ok := lookup(nt, name); ok {
		return binary.AppendUvarint(b, uint64(i)<<1|1)
	}
	nt.add(name)
	b = binary.AppendUvarint(b, uint64(len(name))<<1)
	return append(b, name...)
}

// readName reads a name as appendName writes it. A spelling becomes a
// string of its own, never one that aliases data; a reference is the
// string the spelling made. Refused: a reference past the names the run
// has spelled, and a spelling of one it has.
func readName(data []byte, nt *Names) (string, int, error) {
	if nt == nil {
		return readString(data)
	}
	v, n, err := readUvarint(data)
	if err != nil {
		return "", 0, err
	}
	if v&1 != 0 {
		if v>>1 >= uint64(len(nt.list)) {
			return "", 0, fmt.Errorf("codec: reference to name %d of the %d a run has spelled", v>>1, len(nt.list))
		}
		return nt.list[v>>1], n, nil
	}
	if uint64(len(data)-n) < v>>1 {
		return "", 0, ErrTruncated
	}
	name := data[n : n+int(v>>1)]
	if _, ok := lookup(nt, name); ok {
		return "", 0, fmt.Errorf("codec: name %q spelled twice in a run", name)
	}
	s := string(name)
	nt.add(s)
	return s, n + len(name), nil
}

// readStringList reads what appendStringList writes: a set's elements
// when sorted is set, in which case they must ascend, or a hello's reaches.
func readStringList(data []byte, sorted bool) ([]string, int, error) {
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
		if sorted && i > 0 {
			if err := ascends(false, strings.Compare(out[i-1], s)); err != nil {
				return nil, 0, err
			}
		}
		out = append(out, s)
		n += m
	}
	return out, n, nil
}

// appendState appends a state's encoding. Inside a keyed item nt is the
// run's name table: each replica name is written by appendName, and a
// one-entry GCounter and a one-element GSet take their short forms. Outside
// one nt is nil, and the encoding is the context-free one.
func appendState(b []byte, s lattice.State, nt *Names) []byte {
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
			b = appendState(b, e.Val, nt)
		}
		return b

	case *crdt.GCounter:
		if nt != nil && v.Elements() == 1 {
			b = append(b, tagCounterEntry)
		} else {
			b = append(b, tagGCounter)
			b = binary.AppendUvarint(b, uint64(v.Elements()))
		}
		v.Range(func(id string, count uint64) bool { // ascending by id
			b = appendName(b, id, nt)
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
			b = appendName(b, e.id, nt)
			b = binary.AppendUvarint(b, e.inc)
			b = binary.AppendUvarint(b, e.dec)
		}
		return b

	case *crdt.GSet:
		if nt != nil && v.Len() == 1 {
			return appendString(append(b, tagSetElement), v.Sorted()[0])
		}
		b = append(b, tagGSet)
		return appendStringList(b, v.Sorted())

	case *crdt.TwoPSet:
		b = append(b, tagTwoPSet)
		b = appendStringList(b, v.Added())
		return appendStringList(b, v.Removed())

	case *crdt.LWWRegister:
		b = append(b, tagLWW)
		b = binary.AppendUvarint(b, v.TS)
		b = appendName(b, v.Writer, nt)
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
			b = appendName(b, a.dot.Actor, nt)
			b = binary.AppendUvarint(b, a.dot.Seq)
		}
		return b

	default:
		panic(fmt.Sprintf("codec: no wire format for %T", s))
	}
}

// readState reads a state as appendState writes it: inside a keyed item
// against the run's name table nt, outside one (nt nil) in the
// context-free encoding, in which the short forms are refused.
func readState(data []byte, depth int, nt *Names) (lattice.State, int, error) {
	if depth >= maxStateNesting {
		return nil, 0, ErrNestingTooDeep
	}
	if len(data) == 0 {
		return nil, 0, ErrTruncated
	}
	tag, body := data[0], data[1:]
	s, n, err := readBody(tag, body, depth, nt)
	if err != nil {
		return nil, 0, err
	}
	return s, n + 1, nil
}

func readBody(tag byte, data []byte, depth int, nt *Names) (lattice.State, int, error) {
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
		if data[0] > 1 {
			return nil, 0, fmt.Errorf("codec: flag byte %d", data[0])
		}
		return lattice.NewFlag(data[0] == 1), 1, nil

	case tagSet:
		elems, n, err := readStringList(data, true)
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
		var prev string
		for i := uint64(0); i < count; i++ {
			k, kn, err := readString(data[n:])
			if err != nil {
				return nil, 0, err
			}
			if err := ascends(i == 0, strings.Compare(prev, k)); err != nil {
				return nil, 0, err
			}
			n += kn
			v, vn, err := readState(data[n:], depth+1, nt)
			if err != nil {
				return nil, 0, err
			}
			if v.IsBottom() {
				return nil, 0, fmt.Errorf("codec: map entry %q with no value", k)
			}
			n += vn
			m.Set(k, v)
			prev = k
		}
		return m, n, nil

	case tagGCounter:
		count, n, err := readUvarint(data)
		if err != nil {
			return nil, 0, err
		}
		if nt != nil && count == 1 {
			return nil, 0, fmt.Errorf("codec: a one-entry counter in the long form")
		}
		c := crdt.NewGCounter()
		var prev string
		for i := uint64(0); i < count; i++ {
			id, m, err := readName(data[n:], nt)
			if err != nil {
				return nil, 0, err
			}
			if err := ascends(i == 0, strings.Compare(prev, id)); err != nil {
				return nil, 0, err
			}
			n += m
			v, m2, err := readUvarint(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m2
			if v == 0 {
				return nil, 0, errZeroEntry
			}
			c.Inc(id, v)
			prev = id
		}
		return c, n, nil

	case tagPNCounter:
		count, n, err := readUvarint(data)
		if err != nil {
			return nil, 0, err
		}
		c := crdt.NewPNCounter()
		var prev string
		for i := uint64(0); i < count; i++ {
			id, m, err := readName(data[n:], nt)
			if err != nil {
				return nil, 0, err
			}
			if err := ascends(i == 0, strings.Compare(prev, id)); err != nil {
				return nil, 0, err
			}
			prev = id
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
			if inc == 0 && dec == 0 {
				return nil, 0, errZeroEntry
			}
			if inc > 0 {
				c.Inc(id, inc)
			}
			if dec > 0 {
				c.Dec(id, dec)
			}
		}
		return c, n, nil

	case tagGSet:
		elems, n, err := readStringList(data, true)
		if err != nil {
			return nil, 0, err
		}
		if nt != nil && len(elems) == 1 {
			return nil, 0, fmt.Errorf("codec: a one-element set in the long form")
		}
		return crdt.NewGSet(elems...), n, nil

	case tagTwoPSet:
		added, n, err := readStringList(data, true)
		if err != nil {
			return nil, 0, err
		}
		removed, m, err := readStringList(data[n:], true)
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
		w, m, err := readName(data[n:], nt)
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
		// Each dot once, live under one element or a tombstone, so the
		// atoms ascend by dot alone.
		var prev vclock.Dot
		for i := uint64(0); i < count; i++ {
			elem, m, err := readString(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m
			actor, m2, err := readName(data[n:], nt)
			if err != nil {
				return nil, 0, err
			}
			n += m2
			seq, m3, err := readUvarint(data[n:])
			if err != nil {
				return nil, 0, err
			}
			n += m3
			d := vclock.Dot{Actor: actor, Seq: seq}
			c := strings.Compare(prev.Actor, actor)
			if c == 0 {
				c = cmp.Compare(prev.Seq, seq)
			}
			if err := ascends(i == 0, c); err != nil {
				return nil, 0, err
			}
			s.Merge(crdt.NewAWSetAtom(elem, d))
			prev = d
		}
		return s, n, nil

	case tagCounterEntry:
		if nt == nil {
			break
		}
		id, n, err := readName(data, nt)
		if err != nil {
			return nil, 0, err
		}
		v, m, err := readUvarint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		if v == 0 {
			return nil, 0, errZeroEntry
		}
		return crdt.NewGCounter().IncDelta(id, v), n + m, nil

	case tagSetElement:
		if nt == nil {
			break
		}
		e, n, err := readString(data)
		if err != nil {
			return nil, 0, err
		}
		return crdt.NewGSet(e), n, nil
	}
	return nil, 0, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
}
