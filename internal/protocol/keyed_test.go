package protocol_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// scanKeys collects what an ordered visit by prefix hands out.
func scanKeys(e protocol.KeyedEngine, prefix string) []string {
	var keys []string
	e.Scan(prefix, func(k string, _ lattice.State) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// TestPerObjectHostileKeyLengths: key lengths are input. The empty key,
// keys at and around the arena's chunk bounds and a megabyte key arrive
// through each of the three doors — LocalOp, DeliverObject, RestoreObject
// — and each is stored whole: found again under exactly its bytes, handed
// out whole by the ordered visit, counted whole by Memory.
func TestPerObjectHostileKeyLengths(t *testing.T) {
	lengths := []int{0, 1, 255, 256, 257, 65534, 65535, 65536, 65537, 1 << 20}
	doors := map[string]func(e protocol.KeyedEngine, key string){
		"LocalOp": func(e protocol.KeyedEngine, key string) {
			e.LocalOp(workload.Op{Kind: workload.KindAdd, Key: key, Elem: "v"})
		},
		"DeliverObject": func(e protocol.KeyedEngine, key string) {
			view := []byte(key) // as a frame buffer the caller reuses
			e.(protocol.ObjectDeliverer).DeliverObject("b", view, protocol.NewDeltaMsg(crdt.NewGSet("v")), func(string, protocol.Msg) {})
			for i := range view {
				view[i] = '!'
			}
		},
		"RestoreObject": func(e protocol.KeyedEngine, key string) {
			e.(protocol.ObjectRestorer).RestoreObject(key, crdt.NewGSet("v"))
		},
	}
	for name, door := range doors {
		t.Run(name, func(t *testing.T) {
			e := newKeyedEngine(protocol.NewDeltaBPRR())
			var want []string
			bytes := 0
			for i, n := range lengths {
				key := strings.Repeat(string(rune('a'+i)), n)
				door(e, key)
				door(e, key) // the second arrival finds the first
				want = append(want, key)
				bytes += n
				if st := e.ObjectState(key); st == nil || !st.Equal(crdt.NewGSet("v")) {
					t.Fatalf("key of %d bytes: state %v", n, st)
				}
				if n > 1 && e.ObjectState(key[:n-1]) != nil {
					t.Fatalf("key of %d bytes is also found one byte short", n)
				}
			}
			sort.Strings(want)
			got := scanKeys(e, "")
			if len(got) != len(want) || e.NumKeys() != len(want) {
				t.Fatalf("%d keys visited, NumKeys %d, want %d", len(got), e.NumKeys(), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("visit %d hands out %d bytes %.10q, want %d bytes %.10q", i, len(got[i]), got[i], len(want[i]), want[i])
				}
			}
			if mem := e.Memory(); mem.CRDTBytes < bytes {
				t.Errorf("Memory counts %d bytes, the keys alone are %d", mem.CRDTBytes, bytes)
			}
		})
	}
}

// TestMapFieldHoldsItsRecordsKey: a map field's state is the one-entry
// map {object key ↦ register}, and whichever door the field came in by,
// its entry holds the key the record keeps, not the copy it arrived with.
func TestMapFieldHoldsItsRecordsKey(t *testing.T) {
	for _, inner := range []protocol.Factory{protocol.NewDeltaBPRR(), protocol.NewDeltaAcked(true, true)} {
		f := protocol.NewPerObject(inner, func(string) workload.Datatype { return workload.LWWMapType{} })
		e := f(protocol.Config{ID: "a", Neighbors: []string{"b"}, Nodes: []string{"a", "b"}}).(protocol.KeyedEngine)
		field := func(key, val string) *lattice.Map {
			return lattice.NewMapEntry(strings.Clone(key), &crdt.LWWRegister{TS: 1, Writer: "b", Val: val})
		}
		e.LocalOp(workload.Put(strings.Clone("m/a/f1"), "x"))
		e.(protocol.ObjectDeliverer).DeliverObject("b", []byte("m/b/f1"), protocol.NewDeltaMsg(field("m/b/f1", "y")), func(string, protocol.Msg) {})
		e.(protocol.ObjectRestorer).RestoreObject("m/c/f1", field("m/c/f1", "z"))
		e.LocalOp(workload.Put(strings.Clone("m/b/f1"), "w")) // a write over a delivered field
		n := 0
		e.Scan("", func(key string, st lattice.State) bool {
			n++
			if es := st.(*lattice.Map).Sorted(); len(es) != 1 || es[0].Key != key || unsafe.StringData(es[0].Key) != unsafe.StringData(key) {
				t.Errorf("field %s holds %v, not its record's key", key, es)
			}
			return true
		})
		if n != 3 {
			t.Fatalf("%d fields, want 3", n)
		}
	}
}

// TestPerObjectScanMatchesSortedModel: the ordered visit equals a sorted
// list of the keys created so far, whatever mixes of creating doors and
// visits came before, and a prefix selects exactly the keys that start
// with it — the empty prefix, a prefix equal to a key, one between two
// keys, one past the last key, one before the first.
func TestPerObjectScanMatchesSortedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	e := newKeyedEngine(protocol.NewDeltaAcked(true, true))
	model := map[string]bool{}
	check := func(prefix string) {
		t.Helper()
		var want []string
		for k := range model {
			if strings.HasPrefix(k, prefix) {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		got := scanKeys(e, prefix)
		if len(got) != len(want) {
			t.Fatalf("prefix %q: %d keys, want %d", prefix, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("prefix %q: visit %d is %q, want %q", prefix, i, got[i], want[i])
			}
		}
	}
	check("") // an engine with no key
	check("k")
	for step := 0; step < 400; step++ {
		key := fmt.Sprintf("k%03d", rng.Intn(600))
		if rng.Intn(8) == 0 {
			key += "/sub"
		}
		switch rng.Intn(3) {
		case 0:
			e.LocalOp(workload.Op{Kind: workload.KindAdd, Key: key, Elem: "v"})
		case 1:
			e.(protocol.ObjectDeliverer).DeliverObject("b", []byte(key), protocol.NewDeltaMsg(crdt.NewGSet("w")), func(string, protocol.Msg) {})
		case 2:
			e.(protocol.ObjectRestorer).RestoreObject(key, crdt.NewGSet("r"))
		}
		model[key] = true
		if rng.Intn(5) == 0 {
			check([]string{"", "k", "k1", "k30", key, key + "/", key[:len(key)-1], "k999", "l", "a"}[rng.Intn(10)])
		}
	}
	all := scanKeys(e, "")
	for _, prefix := range []string{"", all[0], all[len(all)-1], all[len(all)-1] + "x", "k6", "zz", "\x00", "j"} {
		check(prefix)
	}
	// A visit stops where fn says so.
	visits := 0
	e.Scan("k", func(string, lattice.State) bool { visits++; return visits < 3 })
	if visits != 3 {
		t.Errorf("a visit told to stop at 3 made %d", visits)
	}
}

// TestPerObjectRehashVisitsWhatChanged pins the stale set behind the
// store's incremental digest: Rehash visits each object whose state may
// have changed since the last call, once, and hands back the word the
// caller left; an acknowledgement is not a change; a restore is a change
// that activates nothing.
func TestPerObjectRehashVisitsWhatChanged(t *testing.T) {
	e := newKeyedEngine(protocol.NewDeltaAcked(true, true))
	od, or := e.(protocol.ObjectDeliverer), e.(protocol.ObjectRestorer)
	drop := func(string, protocol.Msg) {}
	rehash := func() map[string]uint64 {
		seen := map[string]uint64{}
		e.Rehash(func(k string, st lattice.State, hash *uint64) {
			if _, dup := seen[k]; dup {
				t.Fatalf("%q visited twice", k)
			}
			if st != e.ObjectState(k) {
				t.Fatalf("%q visited with a state that is not its own", k)
			}
			seen[k] = *hash
			*hash = uint64(len(k)) + 100
		})
		if e.Stale() {
			t.Fatal("still stale after Rehash")
		}
		return seen
	}
	if e.Stale() || len(rehash()) != 0 {
		t.Fatal("a new engine has stale keys")
	}
	e.LocalOp(workload.Op{Kind: workload.KindAdd, Key: "a", Elem: "1"})
	e.LocalOp(workload.Op{Kind: workload.KindAdd, Key: "a", Elem: "2"})
	od.DeliverObject("b", []byte("bb"), protocol.NewDeltaMsg(crdt.NewGSet("x")), drop)
	or.RestoreObject("ccc", crdt.NewGSet("y"))
	if !e.Stale() {
		t.Fatal("three touched keys, none stale")
	}
	if got := rehash(); len(got) != 3 || got["a"] != 0 || got["bb"] != 0 || got["ccc"] != 0 {
		t.Fatalf("first Rehash saw %v, want a, bb, ccc with zero words", got)
	}
	if got := rehash(); len(got) != 0 {
		t.Fatalf("nothing touched, Rehash saw %v", got)
	}
	// A restore leaves its object quiescent: the tick ships the LocalOps
	// on "a" and nothing of "ccc".
	shipped := map[string]bool{}
	e.Sync(func(_ string, m protocol.Msg) {
		for _, it := range m.(*protocol.BatchMsg).Items {
			shipped[it.Key] = true
		}
	})
	if !shipped["a"] || shipped["ccc"] {
		t.Fatalf("Sync shipped %v, want a and not ccc", shipped)
	}
	if e.Stale() {
		t.Fatal("a Sync made keys stale")
	}
	// An acknowledgement touches the object and changes nothing; a
	// redundant δ-group may have, for all the engine can tell.
	od.DeliverObject("b", []byte("a"), &protocol.AckMsg{Seqs: []uint64{1, 2}}, drop)
	if e.Stale() {
		t.Fatal("an acknowledgement made its key stale")
	}
	od.DeliverObject("b", []byte("bb"), protocol.NewDeltaMsg(crdt.NewGSet("x")), drop)
	if got := rehash(); len(got) != 1 || got["bb"] != 102 {
		t.Fatalf("after a redundant δ-group Rehash saw %v, want bb with the word left there (102)", got)
	}
	words := map[string]uint64{}
	e.Hashes(func(k string, hash uint64) { words[k] = hash })
	if len(words) != 3 || words["a"] != 101 || words["bb"] != 102 || words["ccc"] != 103 {
		t.Fatalf("Hashes hands out %v", words)
	}
}
