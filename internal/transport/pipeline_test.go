package transport_test

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdtsync/internal/crdt"
	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// gcounters is the per-key datatype every pipeline test replicates.
func gcounters(string) workload.Datatype { return workload.GCounterType{} }

// startStoreClusterWith boots n fully meshed stores on loopback ("s-00",
// "s-01", …), letting customize adjust each store's config (Dial
// wrappers, Listener wrappers) after the common fields are filled in.
func startStoreClusterWith(t *testing.T, n int, template transport.StoreConfig, customize func(i int, id string, cfg *transport.StoreConfig)) []*transport.Store {
	t.Helper()
	template.ID = "s"
	stores, err := transport.LoopbackClusterWith(n, template, customize)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	for _, st := range stores {
		st := st
		t.Cleanup(func() { st.Close() })
	}
	return stores
}

// stallConn delays every Write by delay while stalled, modeling a peer
// whose link is up but pathologically slow. Healing (closing the healed
// channel) releases in-flight and future writes immediately.
type stallConn struct {
	net.Conn
	stalled *atomic.Bool
	healed  chan struct{}
	delay   time.Duration
}

func (c *stallConn) Write(p []byte) (int, error) {
	if c.stalled.Load() {
		timer := time.NewTimer(c.delay)
		select {
		case <-timer.C:
		case <-c.healed:
			timer.Stop()
		}
	}
	return c.Conn.Write(p)
}

// TestStoreSlowPeerIsolation is the head-of-line-blocking guarantee of
// the per-peer write pipeline: with one peer's writes stalled well past a
// second, frames between the two healthy replicas must keep flowing at
// tick latency, the stalled link's bounded queue must overflow, and after
// the stall heals the cluster must fully converge via queue drain plus
// digest repair. The 4-deep queue bounds every link, the healthy ones
// too: a link still dialing, or a writer goroutine the scheduler holds
// back for four 15 ms ticks, evicts a frame or two there as well (8 of 20
// runs under -race on two cores), so the drop counters are compared, not
// required to be zero — the sick link loses a frame every tick, a healthy
// one at most a quarter as many. Under the old lock-held synchronous
// transmit this test deadlines: every tick's write to the sick peer held
// the connection mutex for the stall duration, delaying the healthy
// peer's frames behind it.
func TestStoreSlowPeerIsolation(t *testing.T) {
	const sickDelay = 1500 * time.Millisecond
	var sick atomic.Bool
	sick.Store(true)
	healed := make(chan struct{})
	// Healthy stores dial s-02 through a stalling wrapper; their link to
	// each other stays clean.
	slowDial := func(id, addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		if id == "s-02" {
			return &stallConn{Conn: c, stalled: &sick, healed: healed, delay: sickDelay}, nil
		}
		return c, nil
	}
	stores := startStoreClusterWith(t, 3, transport.Limited(transport.StoreConfig{
		Shards:  8,
		Engine:  transport.EngineDelta,
		ObjType: gcounters,
		// Plain deltas are cleared after send, so every frame the stall
		// queue evicts is protocol-level loss: convergence after heal
		// proves the digest path repairs what drop-oldest discarded.
		DigestEvery: 2,
		SyncEvery:   15 * time.Millisecond,
	}, 4, 0, 0), func(i int, id string, cfg *transport.StoreConfig) {
		if id != "s-02" {
			cfg.Dial = slowDial
		}
	})

	// Background writes keep every tick shipping frames to both peers,
	// so the sick link's 4-deep queue overflows while the stall holds.
	// Each writes a key of its own: no later frame carries what an evicted
	// one did, so only repair can bring it to s-02.
	stopLoad := make(chan struct{})
	var loadWg sync.WaitGroup
	loadWg.Add(1)
	go func() {
		defer loadWg.Done()
		for k := 0; ; k++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			stores[0].Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("bg-%05d", k), N: 1})
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Healthy-path latency: markers written on s-00 must reach s-01 at
	// tick latency, never gated on the 1.5s-per-frame link to s-02.
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("marker-%d", i)
		start := time.Now()
		stores[0].Update(workload.Op{Kind: workload.KindInc, Key: key, N: 1})
		for stores[1].Get(key) == nil {
			if time.Since(start) > time.Second {
				t.Fatalf("healthy peer s-01 waited >1s for %s: head-of-line blocking on the stalled link", key)
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Logf("marker %d: s-00 -> s-01 in %s with s-02 stalled at %s/frame",
			i, time.Since(start).Round(time.Millisecond), sickDelay)
	}

	// Keep loading until both healthy stores' sick links have overflowed
	// often enough to compare against, then stop the writers. (Both, not
	// just s-00: s-01 feeds its queue with relayed traffic, a little
	// behind s-00's direct writes.)
	const minSickDrops = 16
	for deadline := time.Now().Add(20 * time.Second); ; {
		if stores[0].Stats().Peers["s-02"].Dropped >= minSickDrops && stores[1].Stats().Peers["s-02"].Dropped >= minSickDrops {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled link never overflowed its queue")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stopLoad)
	loadWg.Wait()

	// The overflow is the sick link's: every clean link in the cluster —
	// the healthy stores' to each other, and s-02's own outbound ones —
	// dropped at most a quarter of what the store at its far end lost
	// toward s-02 over the same ticks.
	for _, st := range stores {
		sickDrops := minSickDrops
		peers := st.Stats().Peers
		if st != stores[2] {
			sickDrops = peers["s-02"].Dropped
		}
		for id, ps := range peers {
			if id != "s-02" && 4*ps.Dropped > sickDrops {
				t.Errorf("%s dropped %d frames toward healthy %s, against %d toward stalled s-02", st.ID(), ps.Dropped, id, sickDrops)
			}
		}
	}

	// Heal. The sick queues drain (newest frames survived drop-oldest)
	// and digest anti-entropy repairs everything that was evicted.
	sick.Store(false)
	close(healed)
	wantKeys := stores[0].NumKeys() // every write targeted s-00
	if err := transport.WaitConverged(stores, wantKeys, 60*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	// A drill ships states in either half of its close: a healthy store
	// that stops one at the root sends its states along (RepairBytes, not
	// RepairShards, which counts the answering half only), and s-02,
	// which writes nothing, answers with nothing.
	repairBytes := 0
	for _, st := range stores {
		repairBytes += st.Stats().RepairBytes
	}
	if repairBytes == 0 {
		t.Error("convergence after heal never used digest repair, yet frames were dropped")
	}
}

// TestStoreQueueOverflowReconnectAndRepair pins the bounded-queue
// arithmetic and the reconnect path: against an unreachable peer the
// pipeline must keep at most its queue length + 1 frames alive (everything else
// drop-oldest-evicted and counted), report backoff state, and — once the
// peer heals — reconnect, drain, and let digest anti-entropy repair the
// dropped frames to exact convergence.
func TestStoreQueueOverflowReconnectAndRepair(t *testing.T) {
	const (
		keys     = 60
		queueLen = 4
	)
	var down atomic.Bool
	down.Store(true)
	failDial := func(id, addr string) (net.Conn, error) {
		if down.Load() {
			return nil, fmt.Errorf("injected: %s unreachable", id)
		}
		return net.DialTimeout("tcp", addr, 2*time.Second)
	}
	stores := startStoreClusterWith(t, 2, transport.Limited(transport.StoreConfig{
		Shards:      8,
		Engine:      transport.EngineDelta,
		ObjType:     gcounters,
		DigestEvery: 2,
		SyncEvery:   10 * time.Millisecond,
	}, queueLen, 0, 0), func(i int, id string, cfg *transport.StoreConfig) {
		if id == "s-00" {
			cfg.Dial = failDial
		}
	})

	// Load over many ticks so plenty of distinct frames hit the dead
	// pipeline (one data frame per dirty tick, digests every other tick).
	for k := 0; k < keys; k++ {
		stores[0].Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%03d", k), N: 1})
		if k%6 == 5 {
			time.Sleep(10 * time.Millisecond)
		}
	}
	var ps transport.PeerStats
	for deadline := time.Now().Add(20 * time.Second); ; {
		ps = stores[0].Stats().Peers["s-01"]
		if ps.Dropped > 0 && ps.Enqueued > queueLen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never overflowed: %+v", ps)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Bounded-queue invariant: every enqueued frame is queued, in flight
	// (at most one), or dropped. A gap means uncounted loss or an
	// unbounded queue.
	if alive := ps.Enqueued - ps.Dropped; alive > queueLen+1 {
		t.Errorf("queue accounting leak: %d frames unaccounted for (enqueued %d, dropped %d, cap %d)",
			alive, ps.Enqueued, ps.Dropped, queueLen)
	}
	if ps.Reconnects != 0 {
		t.Errorf("reconnects = %d while peer is down, want 0 (never connected)", ps.Reconnects)
	}
	// The pipeline must be reporting its failure, not pretending health.
	if ps.State != transport.PeerBackoff && ps.State != transport.PeerConnecting {
		t.Errorf("pipeline state = %q while peer unreachable, want backoff/connecting", ps.State)
	}

	// Heal: the next attempt reconnects, the queue drains, and the
	// digest heartbeat repairs every dropped frame's keys.
	down.Store(false)
	if err := transport.WaitConverged(stores, keys, 60*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	ps = stores[0].Stats().Peers["s-01"]
	if ps.Reconnects == 0 {
		t.Error("healed pipeline never counted a reconnect")
	}
	if ps.State != transport.PeerUp {
		t.Errorf("healed pipeline state = %q, want %q", ps.State, transport.PeerUp)
	}
	if repairs := stores[0].Stats().RepairShards; repairs == 0 {
		t.Error("digest repair never served a shard, yet frames were dropped")
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%03d", k)
		for _, st := range stores {
			got := st.Get(key)
			if got == nil {
				t.Fatalf("%s missing on %s", key, st.ID())
			}
			if v := got.(*crdt.GCounter).Value(); v != 1 {
				t.Errorf("%s on %s = %d, want 1", key, st.ID(), v)
			}
		}
	}
}

// TestStoreByteBudgetedQueueInvariant pins the byte half of the bounded
// queue: frames vary ~100x in size, so against an unreachable peer the
// pipeline must keep at most its byte budget + one frame of enqueued bytes
// alive (everything older evicted by bytes and counted in DroppedBytes),
// whatever the frame count says — and once the peer heals, drain plus
// digest repair still reach exact convergence.
func TestStoreByteBudgetedQueueInvariant(t *testing.T) {
	const (
		keys     = 80
		budget   = 4 << 10
		maxFrame = 1 << 10
	)
	var down atomic.Bool
	down.Store(true)
	failDial := func(id, addr string) (net.Conn, error) {
		if down.Load() {
			return nil, fmt.Errorf("injected: %s unreachable", id)
		}
		return net.DialTimeout("tcp", addr, 2*time.Second)
	}
	stores := startStoreClusterWith(t, 2, transport.Limited(transport.StoreConfig{
		Shards:      8,
		Engine:      transport.EngineDelta,
		ObjType:     gcounters,
		DigestEvery: 2,
		SyncEvery:   10 * time.Millisecond,
	}, 0, budget, maxFrame), func(i int, id string, cfg *transport.StoreConfig) {
		if id == "s-00" {
			cfg.Dial = failDial
		}
	})

	// Load over many ticks so plenty of frames of real size hit the dead
	// pipeline, then watch the ledger: the byte budget must bind long
	// before the 128-frame count cap does.
	checkInvariant := func(ps transport.PeerStats) {
		t.Helper()
		if alive := ps.EnqueuedBytes - ps.DroppedBytes; alive > budget+maxFrame {
			t.Fatalf("byte accounting leak: %d bytes alive (enqueued %d, dropped %d, budget %d + frame %d)",
				alive, ps.EnqueuedBytes, ps.DroppedBytes, budget, maxFrame)
		}
		if ps.QueuedBytes > budget+maxFrame {
			t.Fatalf("queue holds %d bytes, budget %d + frame %d", ps.QueuedBytes, budget, maxFrame)
		}
	}
	for k := 0; k < keys; k++ {
		stores[0].Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%03d", k), N: 1})
		if k%8 == 7 {
			time.Sleep(10 * time.Millisecond)
			checkInvariant(stores[0].Stats().Peers["s-01"])
		}
	}
	var ps transport.PeerStats
	for deadline := time.Now().Add(20 * time.Second); ; {
		ps = stores[0].Stats().Peers["s-01"]
		checkInvariant(ps)
		if ps.DroppedBytes > 0 && ps.EnqueuedBytes > budget {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("byte budget never bound: %+v", ps)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ps.Dropped >= ps.Enqueued {
		t.Fatalf("every frame dropped (%d of %d): eviction must spare the newest", ps.Dropped, ps.Enqueued)
	}

	// Heal: drain, digest repair, exact convergence.
	down.Store(false)
	if err := transport.WaitConverged(stores, keys, 60*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%03d", k)
		if v := stores[1].Get(key).(*crdt.GCounter).Value(); v != 1 {
			t.Errorf("%s on s-01 = %d, want 1", key, v)
		}
	}
}

// TestStoreCloseDrainsQueuedFrames pins the graceful-drain half of Close:
// frames enqueued by a final SyncNow must reach a healthy peer even
// though Close runs immediately after — the pipelines flush before the
// connections come down.
func TestStoreCloseDrainsQueuedFrames(t *testing.T) {
	stores := startStoreClusterWith(t, 2, transport.StoreConfig{
		Shards:    4,
		Engine:    transport.EngineDelta,
		ObjType:   gcounters,
		SyncEvery: time.Hour, // ticks driven manually
	}, nil)
	stores[0].Update(workload.Op{Kind: workload.KindInc, Key: "parting-shot", N: 1})
	stores[0].SyncNow()
	if err := stores[0].Close(); err != nil && !isUseOfClosed(err) {
		t.Fatalf("close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for stores[1].Get("parting-shot") == nil {
		if time.Now().After(deadline) {
			t.Fatal("frame enqueued before Close never arrived: drain is not graceful")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
