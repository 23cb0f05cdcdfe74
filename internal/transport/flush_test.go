package transport

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// The write-triggered flush: a write leaves when it is written, within a
// budget of eight passes per SyncEvery that saves up to flushBurst of them
// while the store is idle, and everything periodic stays on the tick.
// What the core decides is tested on a core alone, the test its clock, its
// network and its sync loop; what the shell adds — the loop, SyncNow and
// Close — on real stores, waiting on Watch events and on polled conditions
// with a deadline. None sleeps for a fixed time.

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
	cfg.Engine = EngineAcked
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

// tickStoreConfig is a replica "n0" of acked-engine GSets with two
// neighbors that never answer, so engines have neighbors to emit to but
// nothing ever arrives from the wire.
func tickStoreConfig() StoreConfig {
	return StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Peers:      map[string]string{"p1": "127.0.0.1:1", "p2": "127.0.0.1:1"},
		Shards:     64,
		Engine:     EngineAcked,
		ObjType:    func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery:  time.Hour,
	}
}

// newTickStore starts tickStoreConfig's store, its sync loop pushed out to
// an hour so the tests drive every pass explicitly.
func newTickStore(t *testing.T) *Store {
	t.Helper()
	s, err := StartStore(tickStoreConfig())
	if err != nil {
		t.Fatalf("StartStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// recorder is the port of a core under test: it keeps the frames handed to
// it per peer, and every peer is up.
type recorder map[string][][]byte

func (r recorder) transmit(to string, data []byte) error {
	r[to] = append(r[to], data)
	return nil
}

func (recorder) connect(string) bool { return true }
func (recorder) announce()           {}

// newTestCore is the core of tickStoreConfig's store with the given period,
// holding acknowledgements as a running store does, and sending through a
// recorder.
func newTestCore(t *testing.T, every time.Duration) (*core, recorder) {
	t.Helper()
	cfg := tickStoreConfig()
	cfg.SyncEvery = every
	c, err := newCore(cfg.withDefaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := recorder{}
	c.out = rec
	c.hold = int64(every / ackHoldsPerTick)
	return c, rec
}

// wireStats reads a core's wire counters.
func wireStats(c *core) StoreStats { return c.stats }

// keysIn returns the distinct keys of the δ-groups in frames.
func keysIn(t *testing.T, shards int, frames [][]byte) map[string]bool {
	t.Helper()
	keys := make(map[string]bool)
	var v codec.FrameView
	for _, f := range frames {
		if err := codec.UnpackFrame(f, shards, &v); err != nil {
			t.Fatalf("unpack: %v", err)
		}
		for _, g := range v.Groups() {
			for _, iv := range g.Items {
				keys[string(iv.Key)] = true
			}
		}
		v.Reset()
	}
	return keys
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

// TestFlushWriteVisibleWithinWindow: a write on an idle store — a flush
// window has passed since its last pass — leaves when it is written, not
// at the next tick; one right behind it leaves when the window ends.
func TestFlushWriteVisibleWithinWindow(t *testing.T) {
	const period = time.Second
	c, rec := newTestCore(t, period)
	window := int64(period / flushesPerTick)
	now := window // the clock's zero was the last pass
	if !c.update(workload.Add("probe", "x")) {
		t.Fatal("a write on an idle store asked for no flush")
	}
	if next, _ := c.step(now); next != int64(period) {
		t.Fatalf("next deadline %d after the flush, want the tick's %d", next, int64(period))
	}
	for _, id := range c.neighbors {
		if got := keysIn(t, len(c.shards), rec[id]); len(rec[id]) != 1 || !got["probe"] {
			t.Fatalf("toward %s: %d frames carrying %v, want the write in one", id, len(rec[id]), got)
		}
	}
	if got := wireStats(c).WriteFlushes; got != 1 {
		t.Fatalf("%d write flushes, want 1", got)
	}
	now++
	if !c.update(workload.Add("next", "x")) {
		t.Fatal("a write after the flush asked for no flush")
	}
	if next, _ := c.step(now); next != 2*window || len(rec["p1"]) != 1 {
		t.Fatalf("a write inside the window: next deadline %d, %d frames toward p1; want %d and 1", next, len(rec["p1"]), 2*window)
	}
	if next, _ := c.step(2 * window); next != int64(period) || len(rec["p1"]) != 2 || len(rec["p2"]) != 2 {
		t.Fatalf("at the window's end: next deadline %d, frames %d and %d; want %d, 2 and 2", next, len(rec["p1"]), len(rec["p2"]), int64(period))
	}
	// A write whose window would end after the tick leaves with the tick.
	c.update(workload.Add("before", "x"))
	c.step(int64(period) - window/2) // flushed: a window has passed
	c.update(workload.Add("late", "x"))
	if next, _ := c.step(int64(period) - window/4); next != int64(period) {
		t.Fatalf("a window ending after the tick put the next deadline at %d, want the tick's %d", next, int64(period))
	}
	if c.step(int64(period)); c.ticks != 1 || !keysIn(t, len(c.shards), rec["p1"])["late"] {
		t.Fatalf("the tick (%d run) did not carry the write", c.ticks)
	}
}

// TestFlushBurstIsBatched: however many writes land within a period, the
// store runs at most eight flushes in it besides the tick, and hands each
// peer at most one frame per pass. The test is the sync loop: it steps the
// core when a write asks for it and when the deadline step returned comes.
func TestFlushBurstIsBatched(t *testing.T) {
	const writes, keys, period = 10000, 500, int64(time.Second)
	c, rec := newTestCore(t, time.Second)
	timer := period // armed at start for the first tick
	for i := 0; i < writes; i++ {
		now := period * int64(i) / writes
		for timer <= now {
			timer, _ = c.step(timer)
		}
		if c.update(workload.Add(fmt.Sprintf("k%05d", i%keys), fmt.Sprintf("e%d", i))) {
			timer, _ = c.step(now)
		}
	}
	for timer <= period {
		timer, _ = c.step(timer)
	}
	st, ticks := wireStats(c), int(c.ticks)
	if ticks != 1 || st.WriteFlushes == 0 || st.WriteFlushes > flushesPerTick {
		t.Errorf("%d write flushes and %d ticks in one period, want 1..%d and 1", st.WriteFlushes, ticks, flushesPerTick)
	}
	for _, id := range c.neighbors {
		if n := len(rec[id]); n == 0 || n > st.WriteFlushes+ticks {
			t.Errorf("%d frames toward %s from %d passes", n, id, st.WriteFlushes+ticks)
		}
		if got := keysIn(t, len(c.shards), rec[id]); len(got) != keys {
			t.Errorf("%d of %d keys reached %s", len(got), keys, id)
		}
	}
}

// TestFlushQuietStoreSpendsItsBudget: a store quiet for flushBurst windows
// has saved up flushBurst passes. That many writes, each landing right
// after the previous one's pass, all leave at once, each in a frame of its
// own; the next waits a window after the last, and a write right behind
// that one a window more, since a request that waited empties the budget.
// A tick spends from the budget as well, but never more than it holds.
func TestFlushQuietStoreSpendsItsBudget(t *testing.T) {
	const period = time.Second
	c, rec := newTestCore(t, period)
	w := int64(period / flushesPerTick)
	now := flushBurst * w // quiet since the clock's zero
	write := func(i int) {
		t.Helper()
		if !c.update(workload.Add(fmt.Sprintf("k%d", i), "x")) {
			t.Fatalf("write %d asked for no flush", i)
		}
	}
	for i := 1; i <= flushBurst; i++ {
		write(i)
		if next, pass := c.step(now); !pass || next != int64(period) || len(rec["p1"]) != i {
			t.Fatalf("write %d of a quiet store: pass %v, next deadline %d, %d frames toward p1; want a pass, %d and %d",
				i, pass, next, len(rec["p1"]), int64(period), i)
		}
	}
	write(flushBurst + 1)
	if next, pass := c.step(now); pass || next != now+w {
		t.Fatalf("a write past the budget: pass %v, next deadline %d; want none and %d", pass, next, now+w)
	}
	now += w
	if next, pass := c.step(now); !pass || next != int64(period) {
		t.Fatalf("at the window's end: pass %v, next deadline %d; want a pass and %d", pass, next, int64(period))
	}
	write(flushBurst + 2)
	if next, _ := c.step(now); next != now+w {
		t.Fatalf("a write right behind one that waited: next deadline %d, want %d", next, now+w)
	}
	if st := wireStats(c); st.WriteFlushes != flushBurst+1 || len(rec["p1"]) != flushBurst+1 || len(rec["p2"]) != flushBurst+1 {
		t.Errorf("%d write flushes, %d and %d frames; want %d of each", st.WriteFlushes, len(rec["p1"]), len(rec["p2"]), flushBurst+1)
	}
	// A tick runs whatever the budget holds. Half a window behind a pass
	// that emptied it, it leaves the budget empty, no emptier: a write
	// behind the tick waits one window, as behind any pass.
	c.step(now + w) // serves the write above
	write(flushBurst + 3)
	c.step(now + w)         // put off a window
	c.step(now + 2*w + w/2) // and stepped half a window late
	c.step(int64(period))   // the tick, half a window after that pass
	write(flushBurst + 4)
	if next, _ := c.step(int64(period)); next != int64(period)+w {
		t.Errorf("a write behind a tick on an empty budget: next deadline %d, want %d", next, int64(period)+w)
	}
}

// spacing is the rule the flush budget replaced, kept as the reference a
// writer that never pauses is held to: a requested flush runs once a window
// has passed since the previous pass, flush or tick. It counts the passes
// and the frames each peer is sent — one per pass that finds a write.
type spacing struct {
	period, window, last, nextTick int64
	wanted, dirty                  bool
	flushes, ticks, frames         int
}

func (m *spacing) update() bool {
	m.dirty = true
	asked := !m.wanted
	m.wanted = true
	return asked
}

func (m *spacing) pass(now int64) {
	m.wanted, m.last = false, now
	if m.dirty {
		m.dirty = false
		m.frames++
	}
}

func (m *spacing) step(now int64) int64 {
	if now >= m.nextTick {
		m.ticks++
		m.pass(now)
		m.nextTick += m.period * ((now-m.nextTick)/m.period + 1)
	}
	next := m.nextTick
	if m.wanted {
		if at := m.last + m.window; at > now {
			next = min(next, at)
		} else {
			m.flushes++
			m.pass(now)
		}
	}
	return next
}

// TestFlushLateTimerSavesNothing: a writer that never pauses, on a store
// whose timer fires every deadline 0.65 ms late — as Go's do under load —
// gets exactly the passes and frames the fixed spacing gave it. A budget
// that also filled while a timer was late would run a pass every window
// instead of every window plus the lateness: more frames, each fuller.
func TestFlushLateTimerSavesNothing(t *testing.T) {
	const period, late, gap, periods = 20 * time.Millisecond, 650 * time.Microsecond, 100 * time.Microsecond, 20
	cfg := tickStoreConfig()
	cfg.SyncEvery = period
	cfg.Engine = EngineDelta // no retransmissions: a frame is a pass that found a write
	c, err := newCore(cfg.withDefaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := recorder{}
	c.out = rec
	ref := &spacing{period: int64(period), window: int64(period / flushesPerTick), nextTick: int64(period)}
	timer, refTimer := int64(period+late), int64(period+late)
	end := int64(periods * period)
	for i := 0; int64(i)*int64(gap) < end; i++ {
		now := int64(i) * int64(gap)
		for timer <= now {
			next, _ := c.step(timer)
			timer = next + int64(late)
		}
		for refTimer <= now {
			refTimer = ref.step(refTimer) + int64(late)
		}
		if c.update(workload.Add(fmt.Sprintf("k%03d", i%500), fmt.Sprintf("e%d", i))) {
			next, _ := c.step(now)
			timer = next + int64(late)
		}
		if ref.update() {
			refTimer = ref.step(now) + int64(late)
		}
	}
	st := wireStats(c)
	if st.WriteFlushes != ref.flushes || int(c.ticks) != ref.ticks {
		t.Errorf("%d write flushes and %d ticks, want the spacing's %d and %d", st.WriteFlushes, c.ticks, ref.flushes, ref.ticks)
	}
	for _, id := range c.neighbors {
		if got := len(rec[id]); got != ref.frames {
			t.Errorf("%d frames toward %s, want the spacing's %d", got, id, ref.frames)
		}
	}
	if ref.flushes < periods*flushesPerTick/2 {
		t.Fatalf("the reference ran %d flushes in %d periods: the writer paused", ref.flushes, periods)
	}
}

// TestFlushLeavesDigestCadenceToTicks: flushes between ticks — with and
// without writes to ship — neither advertise digests nor advance Ticks,
// so DigestEvery counts exactly what it counted before the flush existed.
// (No pass here reads the time it is handed.)
func TestFlushLeavesDigestCadenceToTicks(t *testing.T) {
	const every, ticks = 4, 16
	c, _ := newTestCore(t, time.Hour)
	c.cfg.DigestEvery = every
	peers := len(c.neighbors)
	advertised := func() int {
		st := wireStats(c)
		return st.DigestFrames + st.PiggybackedDigests
	}
	// A writing store: every tick is preceded by two write flushes.
	for tick := 1; tick <= ticks; tick++ {
		for f := 0; f < 2; f++ {
			c.update(workload.Add(fmt.Sprintf("k%d", tick), fmt.Sprintf("e%d", f)))
			c.writeFlush(0)
		}
		if got := c.ticks; got != uint64(tick-1) {
			t.Fatalf("Ticks = %d after flushes before tick %d", got, tick)
		}
		c.tick(0)
		if got, want := advertised(), tick/every*peers; got != want {
			t.Fatalf("after tick %d: %d advertisements, want %d", tick, got, want)
		}
	}
	if st := wireStats(c); st.WriteFlushes != 2*ticks {
		t.Errorf("write flushes = %d, want %d", st.WriteFlushes, 2*ticks)
	}
	// An idle store: exactly one standalone heartbeat per peer per
	// DigestEvery ticks, whatever flushes run in between.
	idle, _ := newTestCore(t, time.Hour)
	idle.cfg.DigestEvery = every
	for tick := 1; tick <= 2*every; tick++ {
		idle.writeFlush(0)
		idle.tick(0)
	}
	if st := wireStats(idle); st.DigestFrames != 2*peers || st.Frames != 2*peers {
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

// TestCloseAfterBurstLosesNoWrite: a store closed straight after a burst of
// writes, while its sync loop may be shipping a write-triggered flush,
// delivers every write. Close used to run its last pass beside that flush
// and close the network under it: the frames the flush had collected were
// refused, and a closed store sends nothing again.
func TestCloseAfterBurstLosesNoWrite(t *testing.T) {
	const iterations, writes = 50, 200
	// The survivors close in the background: a pipeline toward the closed
	// store may be backing off, which Close waits out.
	var closing sync.WaitGroup
	defer closing.Wait()
	for it := 0; it < iterations; it++ {
		stores := flushMesh(t, 3, StoreConfig{SyncEvery: 5 * time.Millisecond})
		holds := func(n int) bool { return stores[1].NumKeys() == n && stores[2].NumKeys() == n }
		stores[0].Update(workload.Add("warm", "x"))
		eventually(t, 10*time.Second, "the first write to arrive", func() bool { return holds(1) })
		for i := 0; i < writes; i++ {
			stores[0].Update(workload.Add(fmt.Sprintf("k%03d", i), "x"))
		}
		if err := stores[0].Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		eventually(t, 10*time.Second, fmt.Sprintf("iteration %d's writes to arrive", it), func() bool { return holds(writes + 1) })
		closing.Add(1)
		go func() {
			defer closing.Done()
			stores[1].Close()
			stores[2].Close()
		}()
	}
}

// TestFlushIdleIsFree: a flush that finds nothing new takes no shard's
// lock, and allocates nothing.
func TestFlushIdleIsFree(t *testing.T) {
	c, _ := newTestCore(t, time.Hour)
	// Objects that only wait for acks (their peers never answer) are none
	// of a flush's business.
	for i := 0; i < 100; i++ {
		c.update(workload.Add(fmt.Sprintf("k%d", i), "x"))
	}
	c.writeFlush(0)
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
	done := make(chan struct{})
	go func() {
		c.writeFlush(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("an idle flush waited for a shard's lock")
	}
	for _, sh := range c.shards {
		sh.mu.Unlock()
	}
	frames := wireStats(c).Frames
	if allocs := testing.AllocsPerRun(100, func() { c.writeFlush(0) }); allocs != 0 {
		t.Errorf("an idle flush allocates %.1f times", allocs)
	}
	if got := wireStats(c).Frames; got != frames {
		t.Errorf("idle flushes sent %d frames", got-frames)
	}
}

// TestFlushCarriesHeldReplies: an owed acknowledgement rides no data
// frame toward its neighbor within its hold, and the first that leaves
// after it; when none does it leaves alone at twice the hold, covering
// every frame that arrived meanwhile. Under a hold of 0 — a store ticked
// by hand, or closing — nothing waits.
func TestFlushCarriesHeldReplies(t *testing.T) {
	c, rec := newTestCore(t, time.Hour)
	lk, hold := c.links["p1"], c.hold
	k := keysOnShard(len(c.shards), 0, 1)[0]
	arrive := func(seq uint64, now int64) {
		t.Helper()
		d := protocol.NewDeltaMsg(crdt.NewGSet(fmt.Sprintf("e%d", seq)))
		frame := linkFrame(t, seq, 0, protocol.FrameAck{}, protocol.ShardItem{
			Shard: 0, Msg: protocol.BatchOf([]protocol.ObjectMsg{{Key: k, Inner: d}}),
		})
		inc := uint32(testPeerInc)
		if _, err := c.deliver("p1", &inc, new(codec.FrameView), frame, now); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, owed bool, ackFrames, toP1 int) {
		t.Helper()
		st := wireStats(c)
		if lk.owed != owed || st.AckFrames != ackFrames || len(rec["p1"]) != toP1 {
			t.Fatalf("%s: owed %v, %d acknowledgement frames, %d frames toward p1; want %v, %d, %d",
				what, lk.owed, st.AckFrames, len(rec["p1"]), owed, ackFrames, toP1)
		}
	}
	// Nothing leaves toward p1 — the flush forwards the δ-group to p2 only —
	// so the acknowledgement is held to twice its hold, and no longer.
	at := int64(time.Second)
	arrive(1, at)
	c.writeFlush(at)
	if got := len(rec["p2"]); got != 1 {
		t.Fatalf("%d frames forwarded to p2, want 1", got)
	}
	if next := c.flushAcks(at + 2*hold - 1); next != at+2*hold {
		t.Fatalf("the hold ends at %d, want %d", next, at+2*hold)
	}
	check("inside the hold", true, 0, 0)
	if next := c.flushAcks(at + 2*hold); next != never {
		t.Fatalf("a hold still runs until %d with nothing owed", next)
	}
	check("at the end of the hold", false, 1, 1)
	// A local write flushed inside the hold leaves without it; the next,
	// flushed once the hold is over, carries it.
	at += 2*hold + 1
	arrive(2, at)
	c.update(workload.Add("local", "x"))
	c.writeFlush(at + 1)
	check("a write flushed inside the hold", true, 1, 2)
	c.update(workload.Add("local", "y"))
	c.writeFlush(at + hold)
	check("a write flushed after the hold", false, 1, 3)
	// Three frames inside one hold: one acknowledgement, whose mark covers
	// all three.
	at += hold + 1
	arrive(3, at)
	arrive(4, at+1)
	arrive(5, at+2)
	if got := lk.owedAt; got != at {
		t.Fatalf("a later frame restarted the hold: %d, want %d", got, at)
	}
	c.flushAcks(at + 2*hold)
	check("three frames, one hold", false, 2, 4)
	if lk.cum != 5 || lk.nranges != 0 {
		t.Fatalf("acknowledged up to %d (%d ranges), want 5", lk.cum, lk.nranges)
	}
	c.hold = 0
	arrive(6, at+2*hold+1)
	check("a hold of 0", false, 3, 5)
}

// TestCloseShipsHeldAck: a store closing with an acknowledgement on hold
// sends it, or its peer would go on sending again what the closed store
// had applied, and never empty its buffers.
func TestCloseShipsHeldAck(t *testing.T) {
	stores := flushMesh(t, 2, StoreConfig{SyncEvery: time.Hour})
	s, peer := stores[0], stores[1]
	s.Update(workload.Add("k", "x"))
	s.locked(func() { s.writeFlush(s.now()) })
	eventually(t, 10*time.Second, "the peer to owe an acknowledgement", func() (owed bool) {
		peer.locked(func() { owed = peer.links[s.ID()].owed })
		return owed
	})
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

// TestCloseShipsHeldForward: Close's last pass ends every hold, so a held
// forward is late, never withheld. Of three plain delta stores whose ticks
// are an hour apart, f-02 holds its forward of f-00's write toward f-01,
// which orders first and has heard the write too, and whose own forward
// waits for its tick: nothing but Close ends the hold, and its last pass
// makes the forward.
func TestCloseShipsHeldForward(t *testing.T) {
	stores, err := LoopbackCluster(3, StoreConfig{ID: "f", Shards: 8, Engine: EngineDelta, SyncEvery: time.Hour,
		ObjType: func(string) workload.Datatype { return workload.GSetType{} }})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	for _, st := range stores {
		t.Cleanup(func() { st.Close() })
	}
	s, holder := stores[0], stores[2]
	s.locked(func() {
		for _, id := range s.neighbors {
			s.out.connect(id) // the pipelines come up, and the hellos say so
		}
	})
	eventually(t, 10*time.Second, "f-02 to hear that f-00 reaches f-01", func() (ok bool) {
		holder.locked(func() { ok = slices.Contains(holder.reach.Of("f-00"), "f-01") })
		return ok
	})
	s.Update(workload.Add("k", "x"))
	s.locked(func() { s.writeFlush(s.now()) })
	eventually(t, 10*time.Second, "f-02 to hold its forward", func() (held bool) {
		holder.locked(func() { held = holder.shardOf("k").ks.Holds() })
		return held
	})
	if got := holder.Stats().Sent.Elements; got != 0 {
		t.Fatalf("f-02 sent %d elements before Close, want its forward held", got)
	}
	if err := holder.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := holder.Stats().Sent.Elements; got != 1 {
		t.Errorf("f-02's last pass sent %d elements, want its held forward", got)
	}
}
