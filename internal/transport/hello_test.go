package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// The hello, what the acked engine withholds on its word, and the digest
// catch-up that covers for a word that stops holding — over real stores
// and TCP where a connection's opening, its end or a refused peer is the
// point, every wait a polled condition with a deadline; a lost hello on
// the deterministic scheduler (sim.go).

// helloMesh starts n fully meshed acked-engine stores of GSets, ids s-00,
// s-01, …, digests off.
func helloMesh(t *testing.T, n int, customize func(i int, id string, cfg *StoreConfig)) []*Store {
	t.Helper()
	stores, err := LoopbackClusterWith(n, StoreConfig{
		ID:        "s",
		Shards:    8,
		Engine:    EngineAcked,
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
	// Every frame but the hello that opens a connection vanishes on the way
	// from s-00 to s-02.
	opensOnly := func(msg []byte, first bool) []byte {
		if first {
			return msg
		}
		return nil
	}
	stores := helloMesh(t, 3, func(i int, _ string, cfg *StoreConfig) {
		if i != 0 {
			return
		}
		cfg.Dial = func(id, addr string) (net.Conn, error) {
			c, err := defaultDial(id, addr)
			if err != nil || id != "s-02" {
				return c, err
			}
			return &filterConn{Conn: c, filter: opensOnly}, nil
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
	var left int
	stores[1].locked(func() { left = stores[1].links["s-02"].catchUp.left })
	if left != 0 {
		t.Errorf("s-01 went quiet with %d shards left to compare with s-02", left)
	}
}

// cutDialer dials connections that can be cut: closed, and refused until
// healed. That is a partition as TCP shows it once it has noticed; a
// filterConn that drops every frame swallows them and leaves the
// connection up.
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
		t.Errorf("%d elements on the wire for %d updates after the heal, want 2 each; meanwhile %d retransmissions and %d acknowledgement-only frames",
			got, keys, after.Retransmits-healed.Retransmits, after.AckFrames-healed.AckFrames)
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
// reaches — the hello NewSim put on the link from s-00 is lost — so it
// forwards what s-00 sends exactly as it always did — twice the elements,
// the same convergence — until s-00's refresh gets through, on its
// helloEvery-th tick.
func TestHelloDroppedCostsBytesNotConvergence(t *testing.T) {
	const keys = 100
	forSeeds(func(seed int64) {
		s := newSim(t, seed, 3, simConfig(EngineAcked, 0))
		s.loseHello(0, 1)
		reachesAt := func(i int, id string) []string { return s.Stats(i).Peers[id].Reaches }
		s.run(s.period)
		if len(reachesAt(0, "s-01")) != 1 || len(reachesAt(0, "s-02")) != 1 || len(reachesAt(2, "s-00")) != 1 ||
			len(reachesAt(2, "s-01")) != 1 || len(reachesAt(1, "s-02")) != 1 {
			s.fatalf("a hello but the lost one did not arrive")
		}
		if got := reachesAt(1, "s-00"); len(got) != 0 {
			s.fatalf("s-01 has s-00 reaching %v without ever hearing its hello", got)
		}
		write := func(prefix string) {
			for k := 0; k < keys; k++ {
				s.Update(0, workload.Add(fmt.Sprintf("s/%s-%03d", prefix, k), "x"))
				s.run(s.now + s.rng.Int63n(simPeriod/16))
			}
			s.converge(simSettlePeriods)
		}
		before := s.Stats(1)
		write("unheard")
		mid := s.Stats(1)
		if got := mid.Sent.Elements - before.Sent.Elements; got != keys {
			s.fatalf("s-01 forwarded %d of s-00's %d elements to s-02, want all: nobody told it not to", got, keys)
		}
		if s.nodes[0].ticks >= helloEvery {
			s.fatalf("s-00 refreshed its hello before the unheard writes were done")
		}
		s.runTo(s.nodes[0], helloEvery*simPeriod)
		s.await("the refreshed hello to reach s-01", simPeriod, func() bool {
			return reflect.DeepEqual(reachesAt(1, "s-00"), []string{"s-02"})
		})
		write("heard")
		after := s.Stats(1)
		if got := after.Sent.Elements - mid.Sent.Elements; got != 0 {
			s.fatalf("s-01 still forwarded %d elements after hearing that s-00 reaches s-02", got)
		}
		if got := after.Withheld - mid.Withheld; got != keys {
			s.fatalf("s-01 withheld %d forwards, want %d", got, keys)
		}
		s.settle()
	})
}

// TestHelloOfANewLifeAdvertisesAtOnce drives the core through a recording
// port: a hello that names another life of its neighbor than the
// neighbor's last hello did is answered at once with this store's digest
// vector, so that the restarted store's drills wait for no advertisement;
// it does not ask for the neighbor's back, which would have both ends
// drill the same shards. A first connection and a reconnect within one
// life send nothing, and neither does a store that compares no digests.
func TestHelloOfANewLifeAdvertisesAtOnce(t *testing.T) {
	for _, every := range []int{4, 0} {
		cfg := tickStoreConfig()
		cfg.DigestEvery = every
		c, err := newCore(cfg.withDefaults(), 1)
		if err != nil {
			t.Fatal(err)
		}
		rec := recorder{}
		c.out = rec
		c.update(workload.Add("k", "v"))
		hello := func(life uint32) {
			t.Helper()
			var inc uint32 // each hello opens a connection of its own
			m := protocol.NewHelloMsg(protocol.WireVersion, uint32(cfg.Shards), life, nil)
			if _, err := c.deliver("p1", &inc, new(codec.FrameView), encodeFrame(t, m), 0); err != nil {
				t.Fatal(err)
			}
		}
		hello(5)
		hello(5)
		if n := len(rec["p1"]); n != 0 {
			t.Fatalf("digests every %d ticks: a first connection and a reconnect sent %d frames", every, n)
		}
		hello(6)
		if every == 0 {
			if n := len(rec["p1"]); n != 0 {
				t.Fatalf("digests off: a new life was sent %d frames", n)
			}
			continue
		}
		if n := len(rec["p1"]); n != 1 {
			t.Fatalf("a new life was sent %d frames, want its digest vector", n)
		}
		m, _, err := codec.DecodeMsg(rec["p1"][0])
		if dm, ok := m.(*protocol.DigestMsg); err != nil || !ok || dm.Echo || !reflect.DeepEqual(dm.Digests, c.shardDigests()) {
			t.Fatalf("a new life was sent %+v (%v), want this store's digests", m, err)
		}
		if len(rec["p2"]) != 0 {
			t.Fatalf("p1's new life sent p2 %d frames", len(rec["p2"]))
		}
	}
}
