package protocol

import (
	"hash/maphash"
	"slices"
	"sort"
	"strings"

	"crdtsync/internal/lattice"
)

// rec is everything a per-object engine keeps about one key: the object's
// state, its datatype, where its key bytes are, one word for whoever owns
// the engine (see PerObject.Rehash) and the flag bits that put the
// object on the engine's lists — 32 bytes; the object's δ-buffer, while it
// has one, is in the engine's side table. Records are never deleted or
// moved — the keyspace is grow-only — so a record's position is the
// object's id.
type rec struct {
	x    lattice.State
	hash uint64
	// off locates the key: chunk<<chunkBits | offset for a key in a chunk,
	// an index into keyIndex.big for one that is flagBig.
	off   uint32
	klen  uint16 // length of a key in a chunk
	flags uint8
	dt    uint8 // the object's datatype: an index into PerObject.types
}

const (
	flagBig    = 1 << iota // the key is in big, not in a chunk
	flagActive             // the object has a δ-buffer: the next Sync must visit it
	flagListed             // the id is on PerObject.active (flagActive may be gone)
	flagQueued             // the id is on PerObject.unsent
)

const (
	// Key bytes live in append-only chunks. The first holds minChunk bytes
	// and each next one twice the last, up to maxChunk: a shard of a few
	// hundred keys pays for a few KB, a shard of a million for at most one
	// part-filled 64 KB chunk.
	chunkBits = 16
	minChunk  = 256
	maxChunk  = 1 << chunkBits
	// maxChunks is what the chunk half of rec.off can number.
	maxChunks = 1 << (32 - chunkBits)
)

// keySeed seeds the table hash. It differs from run to run, which nothing
// observes: the table is only ever probed, never walked.
var keySeed = maphash.MakeSeed()

// keyIndex is the key record table of a per-object engine: one record per
// key, found by key through an open-addressed table of record ids and
// walked in key order through a lazily merged list of them. It replaces a
// map[string]Engine plus a sorted []string, which kept every key three
// times over (map slot, string, slice element).
type keyIndex struct {
	recs []rec
	// table holds id+1 at the slot a key hashes to or the next free one
	// after it (linear probing), 0 where empty; its length is a power of
	// two and at least 4/3 of len(recs). tags holds, slot for slot, the
	// top byte of the key's table hash: a probe reads the record and the
	// key bytes — two cache misses — only where the tag matches, so a
	// lookup that misses touches neither.
	table []uint32
	tags  []uint8
	// chunks are the key bytes, cur the builder behind the last of them.
	// A chunk is allocated once at its full capacity and only ever
	// appended to within it, so the substrings handed out stay valid — and
	// are ordinary immutable strings, safe to retain.
	chunks []string
	cur    strings.Builder
	// big holds, each as a string of its own, the keys no chunk can take:
	// those of maxChunk bytes or more, and any key once maxChunks chunks
	// are full.
	big []string
	// order lists the ids in ascending key order; fresh holds, unordered,
	// the ids created since sorted last ran. A new key costs an append
	// here, and the order is restored where it is consumed.
	order, fresh []uint32
}

// key returns the key of r, a record of x.
func (x *keyIndex) key(r *rec) string {
	if r.flags&flagBig != 0 {
		return x.big[r.off]
	}
	o := r.off & (maxChunk - 1)
	return x.chunks[r.off>>chunkBits][o : o+uint32(r.klen)]
}

// keyOf returns the key of the record id.
func (x *keyIndex) keyOf(id uint32) string { return x.key(&x.recs[id]) }

// find returns the id of key's record, given the key's table hash. A key
// that is a byte view is compared in place: looking up allocates nothing.
func find[K string | []byte](x *keyIndex, h uint64, key K) (uint32, bool) {
	if len(x.table) == 0 {
		return 0, false
	}
	mask, tag := uint64(len(x.table)-1), uint8(h>>56)
	for i := h & mask; ; i = (i + 1) & mask {
		id := x.table[i]
		if id == 0 {
			return 0, false
		}
		if x.tags[i] == tag && x.keyOf(id-1) == string(key) {
			return id - 1, true
		}
	}
}

// add appends the record of a key find has just missed and returns its
// id; the caller fills in the state and datatype. The key is copied whole,
// whatever its length: into the current chunk when it fits one, into big
// otherwise.
func add[K string | []byte](x *keyIndex, h uint64, key K) uint32 {
	if (len(x.recs)+1)*4 > len(x.table)*3 {
		x.grow()
	}
	var r rec
	// An empty key asks for a byte of room so that its offset, like every
	// other, stays below maxChunk.
	if n := len(key); n < maxChunk && x.room(max(n, 1)) {
		last := len(x.chunks) - 1
		r.off, r.klen = uint32(last)<<chunkBits|uint32(x.cur.Len()), uint16(n)
		x.cur.WriteString(string(key))
		x.chunks[last] = x.cur.String()
	} else {
		r.off, r.flags = uint32(len(x.big)), flagBig
		x.big = append(x.big, string(key))
	}
	id := uint32(len(x.recs)) // 2³² records are 128 GB of records
	if len(x.recs) == cap(x.recs) {
		// An eighth more, from the first record on. append would double a
		// slice of fewer than 256 records and add a quarter to a larger
		// one: a shard of a few hundred keys could hold room for twice its
		// records. Copying each record eight times on the way is 256 bytes
		// moved per key, against the microsecond a new object costs.
		grown := make([]rec, len(x.recs), len(x.recs)+len(x.recs)/8+16)
		copy(grown, x.recs)
		x.recs = grown
	}
	x.recs = append(x.recs, r)
	x.place(h, id)
	x.fresh = append(x.fresh, id)
	return id
}

// room makes the current chunk one with n bytes to spare, opening the
// next when the last is too full; it reports false when there is no next.
func (x *keyIndex) room(n int) bool {
	if len(x.chunks) > 0 && x.cur.Cap()-x.cur.Len() >= n {
		return true
	}
	if len(x.chunks) == maxChunks {
		return false
	}
	size := max(n, min(maxChunk, max(minChunk, 2*x.cur.Cap())))
	x.cur.Reset()
	x.cur.Grow(size)
	x.chunks = append(x.chunks, "")
	return true
}

// place puts id at the first free slot from where h points.
func (x *keyIndex) place(h uint64, id uint32) {
	mask := uint64(len(x.table) - 1)
	i := h & mask
	for x.table[i] != 0 {
		i = (i + 1) & mask
	}
	x.table[i], x.tags[i] = id+1, uint8(h>>56)
}

// grow doubles the table. All that is kept of a key's hash is its tag, so
// the keys are hashed again — once per doubling, as a map would.
func (x *keyIndex) grow() {
	x.table = make([]uint32, max(8, 2*len(x.table)))
	x.tags = make([]uint8, len(x.table))
	for id := range x.recs {
		x.place(maphash.String(keySeed, x.keyOf(uint32(id))), uint32(id))
	}
}

// sortByKey puts ids in ascending order of their keys.
func (x *keyIndex) sortByKey(ids []uint32) {
	slices.SortFunc(ids, func(a, b uint32) int { return strings.Compare(x.keyOf(a), x.keyOf(b)) })
}

// sorted returns every id in ascending key order. The ids created since
// the last call are sorted and merged in here, from the back, in one
// pass. The slice is the index's own: valid until the next add.
func (x *keyIndex) sorted() []uint32 {
	if len(x.fresh) == 0 {
		return x.order
	}
	x.sortByKey(x.fresh)
	i, j := len(x.order)-1, len(x.fresh)-1
	x.order = slices.Grow(x.order, len(x.fresh))[:len(x.order)+len(x.fresh)]
	for k := len(x.order) - 1; j >= 0; k-- {
		if i >= 0 && x.keyOf(x.order[i]) > x.keyOf(x.fresh[j]) {
			x.order[k] = x.order[i]
			i--
		} else {
			x.order[k] = x.fresh[j]
			j--
		}
	}
	x.fresh = nil
	return x.order
}

// withPrefix returns, in ascending key order, the ids of the keys that
// start with prefix: a sub-slice of sorted, found by binary search.
func (x *keyIndex) withPrefix(prefix string) []uint32 {
	ids := x.sorted()
	if prefix == "" {
		return ids
	}
	ids = ids[sort.Search(len(ids), func(i int) bool { return x.keyOf(ids[i]) >= prefix }):]
	// Among keys ≥ prefix those that start with it come first.
	return ids[:sort.Search(len(ids), func(i int) bool { return !strings.HasPrefix(x.keyOf(ids[i]), prefix) })]
}
