package transport

import (
	"fmt"
	"math"
	"testing"
	"time"

	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// The write-triggered flush: a write leaves when it is written, at most
// eight times per SyncEvery, and everything periodic stays on the tick.
// The tests wait on Watch events and on polled conditions with a
// deadline; none sleeps for a fixed time.

// eventually polls cond until it holds, failing the test at the deadline.
func eventually(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// flushMesh starts n fully meshed acked-engine stores of GSets.
func flushMesh(t *testing.T, n int, cfg StoreConfig) []*Store {
	t.Helper()
	cfg.ID = "f"
	cfg.Shards = 8
	cfg.Factory = protocol.NewDeltaAcked(true, true)
	cfg.ObjType = func(string) workload.Datatype { return workload.GSetType{} }
	stores, err := LoopbackCluster(n, cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	for _, st := range stores {
		st := st
		t.Cleanup(func() { st.Close() })
	}
	return stores
}

// newTickStore builds an acked-engine store with two unreachable peers,
// so engines have neighbors to emit to but nothing ever arrives from the
// wire; the sync loop is pushed out to an hour so the tests drive every
// pass explicitly.
func newTickStore(t *testing.T) *Store {
	t.Helper()
	s, err := StartStore(StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Peers:      map[string]string{"p1": "127.0.0.1:1", "p2": "127.0.0.1:1"},
		Nodes:      []string{"n0", "p1", "p2"},
		Shards:     64,
		Factory:    protocol.NewDeltaAcked(true, true),
		ObjType:    func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery:  time.Hour,
	})
	if err != nil {
		t.Fatalf("StartStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// idle waits until a full flush window has passed since s's last pass, so
// that the next write's flush is due at once.
func idle(t *testing.T, s *Store) {
	t.Helper()
	window := int64(s.cfg.SyncEvery / flushesPerTick)
	eventually(t, 10*time.Second, "an idle window", func() bool {
		return !s.flushWanted.Load() && s.sinceStart()-s.lastSend.Load() > window
	})
}

// awaitKey blocks until w reports key or the deadline passes.
func awaitKey(t *testing.T, w *Watcher, key string, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("watcher closed before %q arrived", key)
			}
			if ev.Key == key {
				return
			}
		case <-deadline:
			t.Fatalf("%q not visible within %v", key, timeout)
		}
	}
}

// TestFlushWriteVisibleWithinWindow: with a one-second tick, a write on
// an idle store reaches a peer in well under a tenth of it (it waited
// for the tick, half a second on average, before the flush existed).
func TestFlushWriteVisibleWithinWindow(t *testing.T) {
	stores := flushMesh(t, 3, StoreConfig{SyncEvery: time.Second})
	w := stores[1].Watch("", 16)
	defer w.Close()
	// The first write also dials the connections; measure the second.
	stores[0].Update(workload.Add("warm", "x"))
	awaitKey(t, w, "warm", 5*time.Second)
	idle(t, stores[0])
	start := time.Now()
	stores[0].Update(workload.Add("probe", "x"))
	awaitKey(t, w, "probe", 100*time.Millisecond)
	if st := stores[0].Stats(); st.WriteFlushes == 0 {
		t.Errorf("visible after %v without a write-triggered flush: %+v", time.Since(start), st)
	}
}

// TestFlushBurstIsBatched: however many writes land within a period, the
// store runs at most eight flushes in it, and hands each peer at most one
// frame per pass.
func TestFlushBurstIsBatched(t *testing.T) {
	const writes = 10000
	stores := flushMesh(t, 3, StoreConfig{SyncEvery: time.Second})
	start := time.Now()
	for i := 0; i < writes; i++ {
		stores[0].Update(workload.Add(fmt.Sprintf("k%05d", i%500), fmt.Sprintf("e%d", i)))
	}
	if err := WaitConverged(stores, 500, 30*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	st := stores[0].Stats()
	periods := int(time.Since(start)/time.Second) + 1
	if st.WriteFlushes == 0 || st.WriteFlushes > (flushesPerTick+1)*periods {
		t.Errorf("%d write flushes in %d period(s), want 1..%d", st.WriteFlushes, periods, (flushesPerTick+1)*periods)
	}
	passes := st.WriteFlushes + int(stores[0].Ticks())
	for id, ps := range st.Peers {
		if ps.Enqueued == 0 || ps.Enqueued > passes {
			t.Errorf("%d frames toward %s from %d passes", ps.Enqueued, id, passes)
		}
	}
	if st.Retransmits != 0 {
		t.Errorf("%d retransmissions on a lossless mesh", st.Retransmits)
	}
}

// TestFlushLeavesDigestCadenceToTicks: flushes between ticks — with and
// without writes to ship — neither advertise digests nor advance Ticks,
// so DigestEvery counts exactly what it counted before the flush existed.
func TestFlushLeavesDigestCadenceToTicks(t *testing.T) {
	const every, ticks = 4, 16
	s := newTickStore(t)
	s.cfg.DigestEvery = every
	peers := len(s.neighbors)
	advertised := func() int {
		st := s.Stats()
		return st.DigestFrames + st.PiggybackedDigests
	}
	// A writing store: every tick is preceded by two write flushes.
	for tick := 1; tick <= ticks; tick++ {
		for f := 0; f < 2; f++ {
			s.Update(workload.Add(fmt.Sprintf("k%d", tick), fmt.Sprintf("e%d", f)))
			s.writeFlush()
		}
		if got := s.Ticks(); got != uint64(tick-1) {
			t.Fatalf("Ticks = %d after flushes before tick %d", got, tick)
		}
		s.tick()
		if got, want := advertised(), tick/every*peers; got != want {
			t.Fatalf("after tick %d: %d advertisements, want %d", tick, got, want)
		}
	}
	if st := s.Stats(); st.WriteFlushes != 2*ticks {
		t.Errorf("write flushes = %d, want %d", st.WriteFlushes, 2*ticks)
	}
	// An idle store: exactly one standalone heartbeat per peer per
	// DigestEvery ticks, whatever flushes run in between.
	idleStore := newTickStore(t)
	idleStore.cfg.DigestEvery = every
	for tick := 1; tick <= 2*every; tick++ {
		idleStore.writeFlush()
		idleStore.tick()
	}
	if st := idleStore.Stats(); st.DigestFrames != 2*peers || st.Frames != 2*peers {
		t.Errorf("idle store sent %d frames, %d of them heartbeats, want %d", st.Frames, st.DigestFrames, 2*peers)
	}
}

// TestFlushManualModeWaitsForSyncNow pins the contract the test suite and
// the traced benchmark rest on: under a period nobody waits out, nothing
// leaves until SyncNow.
func TestFlushManualModeWaitsForSyncNow(t *testing.T) {
	stores := flushMesh(t, 2, StoreConfig{SyncEvery: time.Hour})
	w := stores[1].Watch("", 16)
	defer w.Close()
	for i := 0; i < 1000; i++ {
		stores[0].Update(workload.Add(fmt.Sprintf("k%d", i%10), fmt.Sprintf("e%d", i)))
	}
	// The sync loop has seen the request once it has emptied wake.
	eventually(t, 10*time.Second, "the sync loop to take the flush request", func() bool {
		return len(stores[0].wake) == 0
	})
	if st := stores[0].Stats(); st.Frames != 0 || st.WriteFlushes != 0 {
		t.Fatalf("sent %d frames in %d flushes before SyncNow", st.Frames, st.WriteFlushes)
	}
	stores[0].SyncNow()
	awaitKey(t, w, "k0", 5*time.Second)
	if st := stores[0].Stats(); st.Frames-st.HelloFrames != 1 || st.WriteFlushes != 0 {
		t.Errorf("SyncNow sent %d frames, %d write flushes, want one frame from the tick behind the connection's hello", st.Frames, st.WriteFlushes)
	}
}

// TestCloseShipsDirtyState: an Update followed by Close reaches the peer
// without any tick in between.
func TestCloseShipsDirtyState(t *testing.T) {
	stores := flushMesh(t, 2, StoreConfig{SyncEvery: time.Hour})
	w := stores[1].Watch("", 16)
	defer w.Close()
	stores[0].Update(workload.Add("last-words", "x"))
	if err := stores[0].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	awaitKey(t, w, "last-words", 5*time.Second)
	if st := stores[1].Get("last-words"); st == nil || !st.(*crdt.GSet).Contains("x") {
		t.Errorf("peer holds %v", st)
	}
	if got := stores[0].Ticks(); got != 0 {
		t.Errorf("Close ran %d ticks", got)
	}
}

// TestFlushIdleIsFree: a flush that finds nothing new takes no shard's
// lock and no link's, and allocates nothing.
func TestFlushIdleIsFree(t *testing.T) {
	s := newTickStore(t)
	// Objects that only wait for acks (their peers are unreachable) are
	// none of a flush's business.
	for i := 0; i < 100; i++ {
		s.Update(workload.Add(fmt.Sprintf("k%d", i), "x"))
	}
	s.writeFlush()
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	for _, lk := range s.linkList {
		lk.packMu.Lock()
		lk.mu.Lock()
	}
	done := make(chan struct{})
	go func() {
		s.writeFlush()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("an idle flush waited for a shard's or a link's lock")
	}
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
	for _, lk := range s.linkList {
		lk.mu.Unlock()
		lk.packMu.Unlock()
	}
	frames := s.Stats().Frames
	if allocs := testing.AllocsPerRun(100, s.writeFlush); allocs != 0 {
		t.Errorf("an idle flush allocates %.1f times", allocs)
	}
	if got := s.Stats().Frames; got != frames {
		t.Errorf("idle flushes sent %d frames", got-frames)
	}
}

// TestFlushCarriesHeldReplies: an owed acknowledgement waits, for up to
// its hold, for a data frame toward its neighbor and rides the first that
// leaves; when none does it leaves alone at the end of the hold, covering
// every frame that arrived meanwhile. A store ticked by hand holds nothing.
// The test is the store's clock: the sync loop's, an hour-long period's,
// never reaches the end of a hold.
func TestFlushCarriesHeldReplies(t *testing.T) {
	s := newTickStore(t)
	lk, hold := s.links["p1"], s.ackHold()
	k := keysOnShard(s.mask, 0, 1)[0]
	inbound := func(seq uint64) {
		t.Helper()
		d := protocol.NewDeltaMsg(crdt.NewGSet(fmt.Sprintf("e%d", seq)))
		frame := linkFrame(t, seq, 0, protocol.FrameAck{}, protocol.ShardItem{
			Shard: 0, Msg: protocol.BatchOf([]protocol.ObjectMsg{{Key: k, Inner: d}}),
		})
		if err := s.deliver("p1", frame); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, owed bool, ackFrames, toP1 int) {
		t.Helper()
		st := s.Stats()
		if lk.owed.Load() != owed || st.AckFrames != ackFrames || st.Peers["p1"].Enqueued != toP1 {
			t.Fatalf("%s: owed %v, %d acknowledgement frames, %d frames toward p1; want %v, %d, %d",
				what, lk.owed.Load(), st.AckFrames, st.Peers["p1"].Enqueued, owed, ackFrames, toP1)
		}
	}
	// Nothing leaves toward p1 — the flush forwards the δ-group to p2 only —
	// so the acknowledgement is held to the end of its hold, and no longer.
	inbound(1)
	at := lk.owedAt.Load()
	s.writeFlush()
	if got := s.Stats().Peers["p2"].Enqueued; got != 1 {
		t.Fatalf("%d frames forwarded to p2, want 1", got)
	}
	if next := s.flushAcks(at + hold - 1); next != at+hold {
		t.Fatalf("the hold ends at %d, want %d", next, at+hold)
	}
	check("inside the hold", true, 0, 0)
	if next := s.flushAcks(at + hold); next != math.MaxInt64 {
		t.Fatalf("a hold still runs until %d with nothing owed", next)
	}
	check("at the end of the hold", false, 1, 1)
	// A local write flushed inside the hold carries it.
	inbound(2)
	s.Update(workload.Add("local", "x"))
	s.writeFlush()
	check("a write flushed inside the hold", false, 1, 2)
	// Three frames inside one hold: one acknowledgement, whose mark covers
	// all three.
	inbound(3)
	at = lk.owedAt.Load()
	inbound(4)
	inbound(5)
	if got := lk.owedAt.Load(); got != at {
		t.Fatalf("a later frame restarted the hold: %d, want %d", got, at)
	}
	s.flushAcks(at + hold)
	check("three frames, one hold", false, 2, 3)
	if lk.cum != 5 || lk.nranges != 0 {
		t.Fatalf("acknowledged up to %d (%d ranges), want 5", lk.cum, lk.nranges)
	}
	// Ticked by hand, the store holds nothing back.
	s.SyncNow()
	inbound(6)
	check("a store ticked by hand", false, 3, 4)
}

// TestCloseShipsHeldAck: a store closing with an acknowledgement on hold
// sends it, or its peer would go on sending again what the closed store
// had applied, and never empty its buffers.
func TestCloseShipsHeldAck(t *testing.T) {
	stores := flushMesh(t, 2, StoreConfig{SyncEvery: time.Hour})
	s, peer := stores[0], stores[1]
	s.Update(workload.Add("k", "x"))
	s.writeFlush()
	eventually(t, 10*time.Second, "the peer to owe an acknowledgement", peer.links[s.ID()].owed.Load)
	if ps := s.Stats().Peers[peer.ID()]; ps.InFlight != 1 || ps.LastAcked != 0 || peer.Get("k") == nil {
		t.Fatalf("before Close: sender's view %+v, want one frame in flight, applied by the peer", ps)
	}
	if err := peer.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	eventually(t, 10*time.Second, "the held acknowledgement to empty the sender's buffers", func() bool {
		ps := s.Stats().Peers[peer.ID()]
		return ps.InFlight == 0 && ps.LastAcked == 1 && s.Memory().BufferBytes == 0
	})
	if got := peer.Stats().AckFrames; got != 1 {
		t.Errorf("the closing store sent %d acknowledgement frames, want 1", got)
	}
}
