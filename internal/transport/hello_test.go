package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// The hello, what the acked engine withholds on its word, and the digest
// catch-up that covers for a word that stops holding — over real stores
// and TCP. Every wait is a polled condition with a deadline.

// helloMesh starts n fully meshed acked-engine stores of GSets, ids s-00,
// s-01, …, digests off.
func helloMesh(t *testing.T, n int, customize func(i int, id string, cfg *StoreConfig)) []*Store {
	t.Helper()
	stores, err := LoopbackClusterWith(n, StoreConfig{
		ID:        "s",
		Shards:    8,
		Factory:   protocol.NewDeltaAcked(true, true),
		ObjType:   func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery: 10 * time.Millisecond,
	}, customize)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	for _, st := range stores {
		st := st
		t.Cleanup(func() { st.Close() })
	}
	return stores
}

// writeKeys has st add one element to each of n fresh keys.
func writeKeys(st *Store, prefix string, n int) {
	for k := 0; k < n; k++ {
		st.Update(workload.Add(fmt.Sprintf("%s-%03d", prefix, k), "x"))
	}
}

// awaitDrained waits until no store buffers anything for a neighbor.
func awaitDrained(t *testing.T, stores ...*Store) {
	t.Helper()
	eventually(t, 20*time.Second, "every δ-buffer to drain", func() bool {
		for _, st := range stores {
			if st.Memory().BufferBytes != 0 {
				return false
			}
		}
		return true
	})
}

// awaitQuiet waits until none of the stores has sent a control frame for
// twenty of its ticks.
func awaitQuiet(t *testing.T, stores ...*Store) {
	t.Helper()
	type mark struct {
		frames int
		tick   uint64
	}
	marks := make([]mark, len(stores))
	eventually(t, 20*time.Second, "the stores to stop advertising", func() bool {
		quiet := true
		for i, st := range stores {
			frames, tick := st.Stats().DigestFrames, st.Ticks()
			if frames != marks[i].frames {
				marks[i] = mark{frames, tick}
			}
			quiet = quiet && tick >= marks[i].tick+20
		}
		return quiet
	})
}

// TestHelloRefusesSkew: two stores that disagree on the shard count, or a
// peer that speaks another wire version, are refused at the hello, before
// any item is routed: counted, named by WaitConverged, and neither store
// the worse for it.
func TestHelloRefusesSkew(t *testing.T) {
	t.Run("shards", func(t *testing.T) {
		stores := helloMesh(t, 2, func(i int, _ string, cfg *StoreConfig) {
			cfg.Shards = []int{16, 64}[i]
		})
		for i, st := range stores {
			writeKeys(st, fmt.Sprintf("from-%d", i), 20)
		}
		eventually(t, 10*time.Second, "both stores to refuse the other's hello", func() bool {
			return stores[0].Stats().HelloRefused > 0 && stores[1].Stats().HelloRefused > 0
		})
		err := WaitConverged(stores, 40, 100*time.Millisecond, nil)
		if err == nil || !strings.Contains(err.Error(), "refused") {
			t.Errorf("WaitConverged: %v, want an error that names the refused hellos", err)
		}
		for i, st := range stores {
			if stats := st.Stats(); stats.DroppedItems != 0 || stats.DigestShardMismatch != 0 {
				t.Errorf("%s found the skew by %d dropped items and %d foreign digest vectors, want by the hello alone",
					st.ID(), stats.DroppedItems, stats.DigestShardMismatch)
			}
			if got := st.NumKeys(); got != 20 {
				t.Errorf("%s holds %d keys, want its own 20: nothing of a refused connection is applied", st.ID(), got)
			}
			key := fmt.Sprintf("from-%d-000", i)
			st.Update(workload.Add(key, "y"))
			if got := st.Get(key); got == nil || got.Elements() != 2 {
				t.Errorf("%s no longer serves local reads and writes: %v", st.ID(), got)
			}
		}
	})
	t.Run("version", func(t *testing.T) {
		s := newTickStore(t)
		// The version before the incarnation moved into the hello, which
		// says it the way it did; the ones before keyed items went without
		// the δ-group's tag, before a batch's keys were front-coded, before
		// a frame's keyed items became one run and before a run spelled each
		// replica name once, whose hellos are this version's in all but the
		// number; and one that is yet to come.
		for i, hello := range []*protocol.HelloMsg{
			protocol.NewHelloMsg(1, uint32(len(s.shards)), 0, []string{"p2"}),
			protocol.NewHelloMsg(2, uint32(len(s.shards)), testPeerInc, []string{"p2"}),
			protocol.NewHelloMsg(3, uint32(len(s.shards)), testPeerInc, []string{"p2"}),
			protocol.NewHelloMsg(4, uint32(len(s.shards)), testPeerInc, []string{"p2"}),
			protocol.NewHelloMsg(5, uint32(len(s.shards)), testPeerInc, []string{"p2"}),
			protocol.NewHelloMsg(protocol.WireVersion+1, uint32(len(s.shards)), testPeerInc, []string{"p2"}),
		} {
			if err := s.deliver("p1", encodeFrame(t, hello)); err == nil {
				t.Errorf("a hello of wire version %d was accepted", hello.Version)
			}
			if st := s.Stats(); st.HelloRefused != i+1 || len(st.Peers["p1"].Reaches) != 0 {
				t.Errorf("version %d: %d hellos refused, p1 reaches %v; want %d and nothing", hello.Version, st.HelloRefused, st.Peers["p1"].Reaches, i+1)
			}
		}
	})
}

// TestHelloHostile: whatever a hello names, only this store's neighbors
// other than the sender end up in what the sender reaches, and a hello
// from a store that is no neighbor changes nothing.
func TestHelloHostile(t *testing.T) {
	s := newTickStore(t) // n0, neighbors p1 and p2
	shards := uint32(len(s.shards))
	reaches := func(id string) []string { return s.Stats().Peers[id].Reaches }
	crowd := []string{"ghost", "n0", "p2", "p2", "p1", ""}
	for i := 0; i < 5000; i++ {
		crowd = append(crowd, fmt.Sprintf("nobody-%d", i))
	}
	for _, c := range []struct {
		name, from string
		ids        []string
		want       map[string][]string
	}{
		{"a stranger's", "stranger", []string{"p1", "p2"}, map[string][]string{"p1": nil, "p2": nil}},
		{"unknown, repeated, the receiver, the sender, far too many", "p1", crowd, map[string][]string{"p1": {"p2"}, "p2": nil}},
		{"empty", "p1", nil, map[string][]string{"p1": nil, "p2": nil}},
	} {
		if err := s.deliver(c.from, encodeFrame(t, protocol.NewHelloMsg(protocol.WireVersion, shards, testPeerInc, c.ids))); err != nil {
			t.Fatalf("%s hello: %v", c.name, err)
		}
		for id, want := range c.want {
			if got := reaches(id); !reflect.DeepEqual(got, want) {
				t.Errorf("after %s hello: %s reaches %v, want %v", c.name, id, got, want)
			}
		}
	}
	// An advertisement that asks for one back gets none from a store the
	// sender is no neighbor of, and breaks nothing.
	ad := protocol.NewDigestMsg(make([]uint64, shards))
	ad.Echo = true
	before := s.Stats().DigestFrames
	if err := s.deliver("stranger", encodeFrame(t, ad)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DigestFrames; got != before {
		t.Errorf("a stranger's advertisement was answered with %d frames", got-before)
	}
	if got := s.Stats().HelloRefused; got != 0 {
		t.Errorf("%d well-formed hellos refused", got)
	}
}

// TestHelloOriginDiesMidFlush: s-00 reaches s-02 as far as it knows — the
// connection is up, the frames vanish — writes, and dies. s-01 withheld
// everything from s-02 on s-00's word; the end of s-00's connection is
// what makes it compare digests with s-02, with no digest schedule
// configured, until the two agree, and then both go quiet.
func TestHelloOriginDiesMidFlush(t *testing.T) {
	const keys = 200
	fault := NewFault(1)
	fault.SetSever(func(peer string) bool { return peer == "s-02" })
	stores := helloMesh(t, 3, func(i int, _ string, cfg *StoreConfig) {
		if i == 0 {
			cfg.Dial = fault.Dialer(nil)
		}
	})
	// The first write brings s-00's pipelines up, and its hellos out.
	stores[0].Update(workload.Add("warm", "x"))
	eventually(t, 10*time.Second, "s-01 to hear that s-00 reaches s-02", func() bool {
		return reflect.DeepEqual(stores[1].Stats().Peers["s-00"].Reaches, []string{"s-02"})
	})
	writeKeys(stores[0], "late", keys)
	eventually(t, 10*time.Second, "s-01 to hold what s-00 wrote", func() bool { return stores[1].NumKeys() == keys+1 })
	if got := stores[2].NumKeys(); got > 1 {
		t.Fatalf("s-02 holds %d keys that neither s-00 nor s-01 should have got to it", got)
	}
	stores[0].Close()
	survivors := stores[1:]
	if err := WaitConverged(survivors, keys+1, 30*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	// (s-02 may have reached s-00 for a moment too, if s-01 forwarded the
	// first write before it heard the hello; then s-01 marks s-00 as well,
	// and keeps dialing it, which is no frame.)
	st := stores[1].Stats()
	if st.Withheld < keys || st.CatchUpShards < len(stores[1].shards) {
		t.Errorf("s-01 withheld %d forwards and marked %d shards; want at least %d, and all %d shards",
			st.Withheld, st.CatchUpShards, keys, len(stores[1].shards))
	}
	awaitQuiet(t, survivors...)
	if left := stores[1].links["s-02"].catchUp.left.Load(); left != 0 {
		t.Errorf("s-01 went quiet with %d shards left to compare with s-02", left)
	}
}

// cutDialer dials connections that can be cut: closed, and refused until
// healed. That is a partition as TCP shows it once it has noticed; Fault's
// sever swallows frames and leaves the connection up.
type cutDialer struct {
	mu    sync.Mutex
	cut   map[string]bool
	conns map[string][]net.Conn
}

func (d *cutDialer) dial(id, addr string) (net.Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cut[id] {
		return nil, errors.New("cut")
	}
	c, err := defaultDial(id, addr)
	if err == nil {
		if d.conns == nil {
			d.conns = make(map[string][]net.Conn)
		}
		d.conns[id] = append(d.conns[id], c)
	}
	return c, err
}

func (d *cutDialer) set(id string, cut bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cut == nil {
		d.cut = make(map[string]bool)
	}
	d.cut[id] = cut
	if cut {
		for _, c := range d.conns[id] {
			c.Close()
		}
		d.conns[id] = nil
	}
}

// TestHelloNonTransitivePartition: s-00 and s-02 lose each other while
// both still reach s-01. Once each has said so, s-01 forwards between
// them again — what it withheld in between is what the digest catch-up is
// for — and after the heal an update crosses two links again.
func TestHelloNonTransitivePartition(t *testing.T) {
	const keys = 100
	dialers := []*cutDialer{{}, {}, {}}
	stores := helloMesh(t, 3, func(i int, _ string, cfg *StoreConfig) { cfg.Dial = dialers[i].dial })
	total := 0
	round := func(prefix string, writers ...int) {
		t.Helper()
		for _, w := range writers {
			writeKeys(stores[w], fmt.Sprintf("%s-%d", prefix, w), keys)
			total += keys
		}
		if err := WaitConverged(stores, total, 30*time.Second, nil); err != nil {
			t.Fatalf("%s: %v", prefix, err)
		}
	}
	round("whole", 0, 1, 2)
	awaitFullReach(t, stores)

	dialers[0].set("s-02", true)
	dialers[2].set("s-00", true)
	before := stores[1].Stats().Sent.Elements
	round("split", 0, 2)
	if got := stores[1].Stats().Sent.Elements - before; got == 0 {
		t.Error("s-01 forwarded nothing between two stores that cannot talk")
	}
	for _, i := range []int{0, 2} {
		if st := stores[i].Stats(); st.Peers["s-01"].State != PeerUp || len(stores[1].Stats().Peers[stores[i].ID()].Reaches) != 0 {
			t.Errorf("%s: pipeline to s-01 %s, and s-01 has it reaching %v; want up, and nobody else",
				stores[i].ID(), st.Peers["s-01"].State, stores[1].Stats().Peers[stores[i].ID()].Reaches)
		}
	}

	dialers[0].set("s-02", false)
	dialers[2].set("s-00", false)
	// What each end still holds for the other goes out on its own timer,
	// which redials; the hellos follow.
	awaitFullReach(t, stores)
	awaitDrained(t, stores...)
	awaitQuiet(t, stores...)
	healed := clusterStats(stores)
	round("healed", 0)
	awaitDrained(t, stores...)
	after := clusterStats(stores)
	if got := after.Sent.Elements - healed.Sent.Elements; got != 2*keys {
		t.Errorf("%d elements on the wire for %d updates after the heal, want 2 each", got, keys)
	}
	if after.CatchUpShards == 0 {
		t.Error("a neighbor stopped reaching another and nobody compared digests")
	}
}

// filterConn hands each whole frame's message, and whether it opens the
// connection, to filter, and writes what that returns in its place, under
// the same sender id: nothing, when it returns nil.
type filterConn struct {
	net.Conn
	filter func(msg []byte, first bool) []byte
	buf    []byte
	opened bool
}

func (c *filterConn) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	for len(c.buf) >= 4 {
		total := int(binary.BigEndian.Uint32(c.buf))
		if len(c.buf) < 4+total {
			break
		}
		frame := c.buf[:4+total]
		idLen := int(binary.BigEndian.Uint16(frame[4:]))
		if msg := c.filter(frame[6+idLen:], !c.opened); msg != nil {
			if err := writeFrame(c.Conn, string(frame[6:6+idLen]), msg); err != nil {
				return 0, err
			}
		}
		c.opened = true
		c.buf = c.buf[4+total:]
	}
	return len(p), nil
}

// TestHelloDroppedCostsBytesNotConvergence: s-01 never hears what s-00
// reaches — the hello that opens s-00's connection arrives reaching nobody,
// as a connection's first frame always arrives, and the refreshes are lost
// — so it forwards what s-00 sends exactly as it always did — twice the
// elements, the same convergence — until a refresh gets through.
func TestHelloDroppedCostsBytesNotConvergence(t *testing.T) {
	const keys = 100
	var eat atomic.Bool
	eat.Store(true)
	unheard := func(msg []byte, first bool) []byte {
		m, _, err := codec.DecodeMsg(msg)
		hello, ok := m.(*protocol.HelloMsg)
		switch {
		case err != nil || !ok || !eat.Load():
			return msg
		case first:
			data, _ := codec.EncodeMsg(protocol.NewHelloMsg(hello.Version, hello.Shards, hello.Inc, nil))
			return data
		default:
			return nil
		}
	}
	stores := helloMesh(t, 3, func(i int, _ string, cfg *StoreConfig) {
		if i != 0 {
			return
		}
		cfg.Dial = func(id, addr string) (net.Conn, error) {
			c, err := defaultDial(id, addr)
			if err != nil || id != "s-01" {
				return c, err
			}
			return &filterConn{Conn: c, filter: unheard}, nil
		}
	})
	reachesAt := func(i int, id string) []string { return stores[i].Stats().Peers[id].Reaches }
	for i, st := range stores {
		st.Update(workload.Add(fmt.Sprintf("warm-%d", i), "x"))
	}
	eventually(t, 10*time.Second, "every hello but the eaten ones to arrive", func() bool {
		return len(reachesAt(0, "s-01")) == 1 && len(reachesAt(0, "s-02")) == 1 &&
			len(reachesAt(2, "s-00")) == 1 && len(reachesAt(2, "s-01")) == 1 && len(reachesAt(1, "s-02")) == 1
	})
	if got := reachesAt(1, "s-00"); len(got) != 0 {
		t.Fatalf("s-01 has s-00 reaching %v without ever hearing its hello", got)
	}
	if err := WaitConverged(stores, 3, 30*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	awaitDrained(t, stores...)

	before := stores[1].Stats()
	writeKeys(stores[0], "unheard", keys)
	if err := WaitConverged(stores, 3+keys, 30*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	awaitDrained(t, stores...)
	mid := stores[1].Stats()
	if got := mid.Sent.Elements - before.Sent.Elements; got != keys {
		t.Errorf("s-01 forwarded %d of s-00's %d elements to s-02, want all: nobody told it not to", got, keys)
	}

	eat.Store(false)
	eventually(t, 10*time.Second, "the refreshed hello to reach s-01", func() bool {
		return reflect.DeepEqual(reachesAt(1, "s-00"), []string{"s-02"})
	})
	writeKeys(stores[0], "heard", keys)
	if err := WaitConverged(stores, 3+2*keys, 30*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	awaitDrained(t, stores...)
	after := stores[1].Stats()
	if got := after.Sent.Elements - mid.Sent.Elements; got != 0 {
		t.Errorf("s-01 still forwarded %d elements after hearing that s-00 reaches s-02", got)
	}
	if got := after.Withheld - mid.Withheld; got != keys {
		t.Errorf("s-01 withheld %d forwards, want %d", got, keys)
	}
}
