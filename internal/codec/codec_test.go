package codec_test

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
)

// roundTrip asserts Decode(Encode(s)) == s and full input consumption.
func roundTrip(t *testing.T, s lattice.State) {
	t.Helper()
	data := codec.Encode(s)
	got, n, err := codec.Decode(data)
	if err != nil {
		t.Fatalf("decode %v: %v", s, err)
	}
	if n != len(data) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(data))
	}
	if !got.Equal(s) {
		t.Fatalf("round trip: got %v, want %v", got, s)
	}
}

func TestRoundTripScalars(t *testing.T) {
	roundTrip(t, lattice.NewMaxInt(0))
	roundTrip(t, lattice.NewMaxInt(1<<40))
	roundTrip(t, lattice.NewFlag(false))
	roundTrip(t, lattice.NewFlag(true))
}

func TestRoundTripSets(t *testing.T) {
	roundTrip(t, lattice.NewSet())
	roundTrip(t, lattice.NewSet("a", "b", "long-element-name"))
	roundTrip(t, crdt.NewGSet())
	roundTrip(t, crdt.NewGSet("x", "y", "z"))
}

func TestRoundTripCounters(t *testing.T) {
	c := crdt.NewGCounter()
	roundTrip(t, c)
	c.Inc("n01", 5)
	c.Inc("n02", 1<<33)
	roundTrip(t, c)

	p := crdt.NewPNCounter()
	p.Inc("a", 3)
	p.Dec("a", 1)
	p.Dec("b", 9)
	roundTrip(t, p)
}

func TestRoundTripMapsNested(t *testing.T) {
	m := lattice.NewMap()
	m.Set("counter", lattice.NewMaxInt(4))
	m.Set("set", lattice.NewSet("p", "q"))
	inner := lattice.NewMap()
	inner.Set("deep", lattice.NewFlag(true))
	m.Set("nested", inner)
	roundTrip(t, m)
}

func TestRoundTripTwoPSet(t *testing.T) {
	s := crdt.NewTwoPSet()
	s.Add("a")
	s.Add("b")
	s.Remove("a")
	s.Remove("never-added")
	roundTrip(t, s)
}

func TestRoundTripLWW(t *testing.T) {
	roundTrip(t, crdt.NewLWWRegister())
	r := crdt.NewLWWRegister()
	r.Write(42, "writer-7", "payload with spaces")
	roundTrip(t, r)
}

func TestRoundTripAWSet(t *testing.T) {
	s := crdt.NewAWSet()
	roundTrip(t, s)
	s.Add("A", "x")
	s.Add("B", "y")
	roundTrip(t, s)
	s.Remove("x") // context-only dot
	roundTrip(t, s)
	s.Add("A", "x") // re-add with fresh dot
	roundTrip(t, s)
}

func TestRoundTripRandomAWSets(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		s := crdt.NewAWSet()
		for j, n := 0, r.Intn(10); j < n; j++ {
			e := "e" + strconv.Itoa(r.Intn(5))
			if r.Intn(3) == 0 {
				s.Remove(e)
			} else {
				s.Add("r"+strconv.Itoa(r.Intn(3)), e)
			}
		}
		roundTrip(t, s)
	}
}

func TestCanonicalEncoding(t *testing.T) {
	// Equal states built differently encode to identical bytes.
	a := crdt.NewGSet()
	a.Add("p")
	a.Add("q")
	b := crdt.NewGSet()
	b.Add("q")
	b.Add("p")
	if !bytes.Equal(codec.Encode(a), codec.Encode(b)) {
		t.Error("insertion order leaked into the encoding")
	}
}

func TestEncodedSizeTracksSizeBytes(t *testing.T) {
	// The wire size should be within a small constant factor of the
	// SizeBytes() accounting used by the experiments.
	s := crdt.NewGSet()
	for i := 0; i < 100; i++ {
		s.Add("element-" + strconv.Itoa(i))
	}
	enc := len(codec.Encode(s))
	acc := s.SizeBytes()
	if enc < acc || enc > 2*acc {
		t.Errorf("encoded %d bytes vs accounted %d: accounting is off", enc, acc)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := codec.Decode(nil); err == nil {
		t.Error("empty input should fail")
	}
	if _, _, err := codec.Decode([]byte{250}); err == nil {
		t.Error("unknown tag should fail")
	}
	// Truncated set: claims 3 elements, provides none.
	data := codec.Encode(lattice.NewSet("abc"))
	if _, _, err := codec.Decode(data[:2]); err == nil {
		t.Error("truncated input should fail")
	}
}

func TestEncodeUnsupportedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("encoding a Pair should panic (no wire format)")
		}
	}()
	codec.Encode(lattice.NewPair(lattice.NewMaxInt(1), lattice.NewMaxInt(2)))
}

func TestDecodeStream(t *testing.T) {
	// Multiple states back-to-back decode sequentially via the returned
	// byte counts.
	var buf []byte
	buf = append(buf, codec.Encode(lattice.NewMaxInt(7))...)
	buf = append(buf, codec.Encode(crdt.NewGSet("s"))...)
	first, n, err := codec.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	second, m, err := codec.Decode(buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if n+m != len(buf) {
		t.Error("stream not fully consumed")
	}
	if first.(*lattice.MaxInt).V != 7 || !second.(*crdt.GSet).Contains("s") {
		t.Error("stream decoded wrong values")
	}
}

// TestCanonicalAcrossRepresentations checks that the encoding of a set,
// counter or map is a function of its contents alone: whatever order the
// entries arrived in, whichever side of the slice→map promotion (8
// entries) the state is on, and — for a map that grew past it and shrank
// again — whichever form holds them, equal states give equal bytes, with
// the entries in ascending order.
func TestCanonicalAcrossRepresentations(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 7, 8, 9, 16, 40} {
		var keys []string
		for i := 0; i < n; i++ {
			keys = append(keys, "k"+strconv.Itoa(100+i))
		}
		build := func() []lattice.State {
			set, gset, gc, m := lattice.NewSet(), crdt.NewGSet(), crdt.NewGCounter(), lattice.NewMap()
			for _, i := range r.Perm(n) {
				set.Add(keys[i])
				gset.Add(keys[i])
				gc.Inc(keys[i], uint64(i+1))
				m.Set(keys[i], &crdt.LWWRegister{TS: uint64(i + 1), Writer: "w", Val: keys[i]})
			}
			return []lattice.State{set, gset, gc, m}
		}
		a, b := build(), build()
		for i := range a {
			ea, eb := codec.Encode(a[i]), codec.Encode(b[i])
			if !bytes.Equal(ea, eb) {
				t.Errorf("n=%d: %T encodes differently after a different insertion order", n, a[i])
			}
			// The keys appear in the bytes in ascending order.
			at := 0
			for _, k := range keys {
				next := bytes.Index(ea[at:], []byte(k))
				if next < 0 {
					t.Fatalf("n=%d: %T encoding lacks %s after offset %d", n, a[i], k, at)
				}
				at += next + len(k)
			}
			roundTrip(t, a[i])
		}
	}

	// A map that was promoted and then lost entries is in map form; the
	// same entries inserted into a fresh map are a slice.
	grown, fresh := lattice.NewMap(), lattice.NewMap()
	for i := 0; i < 20; i++ {
		grown.Set("k"+strconv.Itoa(i), lattice.NewMaxInt(uint64(i+1)))
	}
	for i := 3; i < 20; i++ {
		grown.Set("k"+strconv.Itoa(i), lattice.NewMaxInt(0))
	}
	for i := 2; i >= 0; i-- {
		fresh.Set("k"+strconv.Itoa(i), lattice.NewMaxInt(uint64(i+1)))
	}
	if !grown.Equal(fresh) || !fresh.Equal(grown) || !bytes.Equal(codec.Encode(grown), codec.Encode(fresh)) {
		t.Errorf("%v and %v differ, or encode differently", grown, fresh)
	}
}

// TestAppendStateAllocs pins that encoding the small states a store
// ships and hashes per key copies nothing: the entries are walked where
// they lie, already in canonical order — at one entry, held in the
// value's struct, and at 2, 3 and 8, held behind it.
func TestAppendStateAllocs(t *testing.T) {
	var states []lattice.State
	for _, n := range []int{1, 2, 3, 8} {
		counter, set, m := crdt.NewGCounter(), crdt.NewGSet(), lattice.NewMap()
		for i := n - 1; i >= 0; i-- { // descending: each goes first
			counter.Inc("r"+strconv.Itoa(i), uint64(i+1))
			set.Add("e00" + strconv.Itoa(i))
			m.Set("m/n000001/f0"+strconv.Itoa(i), &crdt.LWWRegister{TS: 2, Writer: "r1", Val: "x"})
		}
		states = append(states, counter, set, (*lattice.Set)(set), m)
	}
	buf := make([]byte, 0, 1024)
	for _, s := range states {
		if n := testing.AllocsPerRun(100, func() { buf = codec.AppendState(buf[:0], s) }); n != 0 {
			t.Errorf("AppendState(%v) allocates %.0f times, want 0", s, n)
		}
	}
}
