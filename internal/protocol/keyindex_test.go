package protocol

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"crdtsync/internal/core"
)

// TestRecordSize pins what every key of a keyspace pays for its record: a
// field added to rec grows every key of every store.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(rec{}); got != 32 {
		t.Errorf("a key record is %d bytes, want 32", got)
	}
}

// TestEntrySize pins what every δ-group in flight pays for its δ-buffer
// entry, under either engine: a field added to core.Entry grows every
// buffered entry of every store.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(core.Entry{}); got != 72 {
		t.Errorf("a δ-buffer entry is %d bytes, want 72", got)
	}
}

// indexModel drives a keyIndex beside the map and the sorted list it
// replaced.
type indexModel struct {
	x   keyIndex
	ids map[string]uint32
}

func newIndexModel() *indexModel { return &indexModel{ids: make(map[string]uint32)} }

// put looks key up and adds it if it is new, as PerObject's obj does —
// through the byte-view instantiation when asBytes — and checks the id
// against the model.
func (m *indexModel) put(t testing.TB, key string, asBytes bool) {
	t.Helper()
	var id uint32
	var ok bool
	if asBytes {
		b := []byte(key)
		h := maphash.Bytes(keySeed, b)
		if id, ok = find(&m.x, h, b); !ok {
			id = add(&m.x, h, b)
			for i := range b { // the index must have copied the view
				b[i] ^= 0xff
			}
		}
	} else {
		h := maphash.String(keySeed, key)
		if id, ok = find(&m.x, h, key); !ok {
			id = add(&m.x, h, key)
		}
	}
	want, known := m.ids[key]
	if !known {
		want = uint32(len(m.ids))
		m.ids[key] = want
	}
	if ok != known || id != want {
		t.Fatalf("key of %d bytes %.20q: found=%v id=%d, model has known=%v id=%d", len(key), key, ok, id, known, want)
	}
	if got := m.x.keyOf(id); got != key {
		t.Fatalf("record %d holds a key of %d bytes %.20q, want %d bytes %.20q", id, len(got), got, len(key), key)
	}
}

// check compares every lookup, the ordered walk and one prefix range
// against the model.
func (m *indexModel) check(t testing.TB, prefix string) {
	t.Helper()
	if len(m.x.recs) != len(m.ids) {
		t.Fatalf("%d records, model has %d keys", len(m.x.recs), len(m.ids))
	}
	keys := make([]string, 0, len(m.ids))
	for k, want := range m.ids {
		keys = append(keys, k)
		if id, ok := find(&m.x, maphash.String(keySeed, k), k); !ok || id != want {
			t.Fatalf("%.20q: found=%v id=%d, want %d", k, ok, id, want)
		}
		if _, ok := find(&m.x, maphash.String(keySeed, k+"\x00"), k+"\x00"); ok != m.has(k+"\x00") {
			t.Fatalf("%.20q plus a zero byte: found=%v", k, ok)
		}
	}
	sort.Strings(keys)
	walk := func(ids []uint32) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = m.x.keyOf(id)
		}
		return out
	}
	if got := walk(m.x.sorted()); !slices.Equal(got, keys) {
		t.Fatalf("ordered walk has %d keys %.5q…, model %d keys %.5q…", len(got), got, len(keys), keys)
	}
	var want []string
	for _, k := range keys {
		if strings.HasPrefix(k, prefix) {
			want = append(want, k)
		}
	}
	if got := walk(m.x.withPrefix(prefix)); !slices.Equal(got, want) {
		t.Fatalf("prefix %.20q: %d keys %.5q…, model %d keys %.5q…", prefix, len(got), got, len(want), want)
	}
}

func (m *indexModel) has(k string) bool { _, ok := m.ids[k]; return ok }

// FuzzKeyIndex decodes a history of index operations from the input and
// runs it against a map[string] model: single keys taken from the input
// (empty ones included), runs of generated keys long enough to take the
// table through several doublings and the arena through several chunks,
// keys of hostile length around the chunk bounds, and checks — every
// lookup, the ordered walk, a prefix range — in between and at the end.
func FuzzKeyIndex(f *testing.F) {
	f.Add([]byte{0, 3, 'a', 'b', 'c', 3, 0, 2, 200, 3, 1, 'k', 1, 40, 4, 7, 3, 0})
	f.Add([]byte{2, 255, 2, 255, 2, 255, 4, 0, 4, 6, 4, 7, 4, 8, 0, 0, 3, 1, 'g'})
	f.Add([]byte{4, 3, 4, 4, 0, 1, 'x', 4, 5, 0, 0, 4, 3, 3, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		m := newIndexModel()
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		take := func(n int) string {
			n = min(n, len(in))
			s := string(in[:n])
			in = in[n:]
			return s
		}
		hostile := []int{0, 1, minChunk - 1, minChunk, minChunk + 1, maxChunk - 2, maxChunk - 1, maxChunk, maxChunk + 1, 3 * maxChunk}
		gen, big := 0, 0
		for len(in) > 0 {
			switch op := next(); op % 5 {
			case 0, 1: // one key from the input, as a string or as a byte view
				m.put(t, take(next()%40), op%5 == 1)
			case 2: // a run of fresh generated keys, every third one seen before
				for n := next(); n > 0; n-- {
					gen++
					m.put(t, fmt.Sprintf("g/%05d", gen), n%2 == 0)
					if n%3 == 0 {
						m.put(t, fmt.Sprintf("g/%05d", gen/2), n%2 == 1)
					}
				}
			case 3:
				m.check(t, take(next()%4))
			case 4: // a key of hostile length; a handful, they are big
				if big++; big <= 12 {
					n := hostile[next()%len(hostile)]
					m.put(t, strings.Repeat(string(rune('a'+big)), n), big%2 == 0)
				}
			}
		}
		m.check(t, "g/0")
		if n := len(m.x.table); n&(n-1) != 0 || len(m.x.recs)*4 > n*3 {
			t.Fatalf("%d records in a table of %d", len(m.x.recs), n)
		}
	})
}

// TestKeyIndexHostileLengths walks the key lengths around every bound of
// the arena — and the one order of arrival that would overflow a 16-bit
// offset: the empty key meeting a 64 KB chunk filled to its last byte —
// and pins what a key costs: nothing is truncated, a key no chunk takes
// costs its own bytes and no chunk, and a small index never opens a large
// chunk.
func TestKeyIndexHostileLengths(t *testing.T) {
	m := newIndexModel()
	m.put(t, strings.Repeat("a", maxChunk-1), false) // a chunk of its own, one byte spare
	m.put(t, "b", true)                              // that chunk is now full to the byte
	m.put(t, "", true)                               // and the empty key must not land past its end
	m.check(t, "")
	if got := len(m.x.chunks); got != 2 {
		t.Errorf("%d chunks after a full one and the empty key, want 2", got)
	}
	for i, n := range []int{maxChunk, maxChunk + 1, 1 << 20} {
		chunks := len(m.x.chunks)
		m.put(t, strings.Repeat(string(rune('c'+i)), n), i%2 == 0)
		if len(m.x.chunks) != chunks || len(m.x.big) != i+1 {
			t.Errorf("a key of %d bytes left %d chunks (had %d) and %d big keys, want %d", n, len(m.x.chunks), chunks, len(m.x.big), i+1)
		}
	}
	for i := 0; i < 2000; i++ {
		m.put(t, fmt.Sprintf("k%04d", i), i%2 == 0)
	}
	m.check(t, "k1")
	if id, ok := find(&m.x, maphash.String(keySeed, "a"), "a"); ok {
		t.Errorf("a prefix of a stored key was found as record %d", id)
	}

	// 312 keys of the benchmark's length are 3.4 KB: the chunks that hold
	// them are 256 B to 2 KB, not one sized for a large shard.
	small := newIndexModel()
	for i := 0; i < 312; i++ {
		small.put(t, fmt.Sprintf("c/n%08d", i), false)
	}
	if n, last := len(small.x.chunks), small.x.cur.Cap(); n != 4 || last != 2<<10 {
		t.Errorf("312 keys are held in %d chunks, the last of %d bytes; want 4 and 2048", n, last)
	}
	if got := small.x.keyOf(311); got != "c/n00000311" {
		t.Errorf("last key reads %q", got)
	}
}
