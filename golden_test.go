package crdtsync_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"crdtsync"
	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
)

// The golden values below were captured at the commit before counters,
// sets and maps moved from Go maps to sorted slices (promoting back to a
// map past eight entries). Encodings, digests and everything derived
// from them — wire bytes, Merkle leaves, snapshot files — are a function
// of a state's contents only, so none of them may move when the
// representation does.

// goldenScript is a fixed sequence of updates: counters written once,
// twice and from three replicas, sets of 1 to 30 elements inserted out of
// order (so they cross the promotion constant), and map fields
// overwritten up to three times. writers is 1 for a lone store and 3 for
// a cluster; every map field has a single writer, as the LWW versions are
// assigned from what the writer has seen.
func goldenScript(stores []*crdtsync.Store) (keys int) {
	w := len(stores)
	for i := 0; i < 30; i++ {
		c := fmt.Sprintf("hits-%02d", i)
		for j := 0; j <= i%3; j++ {
			stores[(i+j)%w].Counter(c).Inc(uint64(1 + i + 7*j))
		}
		s := fmt.Sprintf("tags-%02d", i)
		for j := 0; j <= i; j++ {
			stores[j%w].Set(s).Add(fmt.Sprintf("t%03d", (j*37+i)%101))
		}
		for f := 0; f < 1+i%4; f++ {
			for v := 0; v <= f%3; v++ {
				stores[i%w].Map(fmt.Sprintf("user-%02d", i)).Put(fmt.Sprintf("f%d", f), fmt.Sprintf("v%d-%d-%d", i, f, v))
			}
		}
		keys += 2 + 1 + i%4
	}
	return keys
}

// contentHash is the SHA-256 of every object's key and canonical
// encoding, in Scan order.
func contentHash(st *crdtsync.Store) string {
	h := sha256.New()
	st.Scan("", func(key string, state crdtsync.State) bool {
		fmt.Fprintf(h, "%d:%s", len(key), key)
		h.Write(codec.Encode(state))
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenStoreDigest(t *testing.T) {
	const (
		loneDigest     = uint64(0xe63e38055e40db6f)
		loneContent    = "c602a5089d8a1c9ce381d2b1bc28beae3c0a56e939e4e7b65672205b0e05b32a"
		clusterDigest  = uint64(0x8007c575f3fe565e)
		clusterContent = "b2adb6dcf20eddeb94409bd8c9ebbffceb736c729f155252415586aef79a110b"
	)
	lone, err := crdtsync.Open(crdtsync.WithID("r0"), crdtsync.WithShards(8), crdtsync.WithSyncEvery(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Close()
	goldenScript([]*crdtsync.Store{lone})
	if d, c := lone.Digest(), contentHash(lone); d != loneDigest || c != loneContent {
		t.Errorf("lone store: digest %#x content %s, want %#x %s", d, c, loneDigest, loneContent)
	}

	for _, engine := range []crdtsync.Engine{crdtsync.EngineAcked, crdtsync.EngineDelta} {
		stores := openCluster(t, 3, crdtsync.WithEngine(engine))
		keys := goldenScript(stores)
		if err := crdtsync.WaitConverged(stores, keys, 20*time.Second, nil); err != nil {
			t.Fatal(err)
		}
		for _, st := range stores {
			if d, c := st.Digest(), contentHash(st); d != clusterDigest || c != clusterContent {
				t.Errorf("%v cluster, %s: digest %#x content %s, want %#x %s", engine, st.ID(), d, c, clusterDigest, clusterContent)
			}
		}
	}
}

func TestGoldenEncodings(t *testing.T) {
	counter := crdt.NewGCounter()
	for i := 0; i < 12; i++ {
		counter.Inc(fmt.Sprintf("node-%02d", (i*5)%12), uint64(100+i))
	}
	gset, set := crdt.NewGSet(), lattice.NewSet()
	fields, versions := crdt.NewGMap(), lattice.NewMap()
	for i := 0; i < 20; i++ {
		e := fmt.Sprintf("e%02d", (i*7)%20)
		gset.Add(e)
		set.Add(e)
		fields.Set("f-"+e, &crdt.LWWRegister{TS: uint64(i + 1), Writer: "r" + e[2:], Val: "value of " + e})
		versions.Set(e, lattice.NewMaxInt(uint64(i+1)))
	}
	nested := lattice.NewMap()
	nested.Set("small", lattice.NewSet("b", "a"))
	nested.Set("large", set.Clone())
	nested.Set("fields", fields.Clone())
	for _, c := range []struct {
		name, want string
		state      lattice.State
	}{
		{"counter-1", "af4f68f9739e73d9", crdt.NewGCounter().IncDelta("r0", 7)},
		{"counter-12", "f409f318ac1843de", counter},
		{"gset-3", "acbdc34c04e569bd", crdt.NewGSet("b", "c", "a")},
		{"gset-20", "b149445a399dfde8", gset},
		{"set-20", "a5505f72b62804d4", set},
		{"lwwmap-1", "98f59d511bcb6011", lattice.NewMapEntry("m/n000001/f01", &crdt.LWWRegister{TS: 3, Writer: "r2", Val: "x"})},
		{"lwwmap-20", "71dccc84b2af22cd", fields},
		{"gmap-20", "be10b600716ba052", versions},
		{"nested", "1944f58ae5617a73", nested},
	} {
		sum := sha256.Sum256(codec.Encode(c.state))
		if got := hex.EncodeToString(sum[:8]); got != c.want {
			t.Errorf("%s: encoding hashes to %q, want %q", c.name, got, c.want)
		}
	}
}
