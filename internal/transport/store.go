package transport

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/workload"
)

// StoreConfig describes one replica of a sharded multi-object store.
type StoreConfig struct {
	// ID is this replica's identifier.
	ID string
	// ListenAddr is the TCP address to accept neighbor frames on.
	ListenAddr string
	// Listener, when non-nil, is used instead of binding ListenAddr.
	Listener net.Listener
	// Dial, when non-nil, replaces the default TCP dialer for outbound
	// connections; the fault injector (Fault) and the tests wrap it to
	// drop or rewrite frames.
	Dial DialFunc
	// Peers maps neighbor ids to their listen addresses.
	Peers map[string]string
	// Shards is the shard count, rounded up to a power of two
	// (default 16). Every replica in a cluster must use the same value:
	// a receiver routes a frame's keyed items by hashing their keys under
	// its own count, and digests and drills are per shard.
	Shards int
	// Engine is the algorithm every object runs (default EngineAcked).
	Engine Engine
	// ObjType chooses the datatype of each object from its key.
	ObjType func(key string) workload.Datatype
	// SyncEvery is the synchronization period (default 1s): the interval
	// of the sync tick. The tick is the maximum delay of a write, the
	// heartbeat, the clock DigestEvery counts and the clock the acked
	// engine's retransmissions back off in. A write does not wait for
	// it: an Update (or a delivery that leaves something to forward to a
	// neighbor the frame's sender does not reach) triggers a flush of what has never been sent, which spends the flush
	// budget — so the period is also the batching budget: flushes and
	// ticks run at eight per period on average, up to four saved while the
	// store is idle leave back to back, and a request that finds the
	// budget spent runs at most SyncEvery/8 after the previous pass (see
	// WriteFlushes). An acknowledgement rides the first data frame that
	// leaves once it has been owed for one SyncEvery, leaves alone after
	// two, and waits not at all once the owner has called SyncNow. A period nobody waits out (time.Hour) plus
	// explicit SyncNow calls ticks the store by hand: nothing leaves
	// between two calls but acknowledgements.
	SyncEvery time.Duration
	// DigestEvery enables digest anti-entropy: every DigestEvery-th sync
	// tick (write-triggered flushes do not count) the store also ships
	// its per-shard digest vector to every peer; a peer whose digests
	// differ drills into those shards for the ranges worth shipping.
	// This repairs divergence the inner engines cannot see (lost frames
	// under clear-after-send engines, healed partitions) at a
	// near-constant per-tick cost of 8 bytes per shard once converged.
	// 0 disables digests (delta traffic only).
	DigestEvery int
	// SnapshotDir, when set, enables crash-restart durability: a
	// background snapshotter periodically serializes each shard's objects
	// through the canonical codec to an atomic-rename file per shard in
	// this directory, and StartStore restores from those files before
	// joining the mesh. A restored replica is as stale as its last
	// snapshot; ordinary digest anti-entropy repairs the gap, so recovery
	// cost is proportional to staleness, not keyspace size. Empty
	// disables snapshots entirely (the prior, memory-only behavior).
	SnapshotDir string
	// SnapshotEvery is the snapshot period (default 10s when SnapshotDir
	// is set). Each pass serializes one shard at a time under its lock,
	// skipping shards whose content digest has not moved since their
	// last snapshot, so a quiescent store's pass costs a few atomic
	// loads and no I/O.
	SnapshotEvery time.Duration

	// queue bounds each peer's outbound queue (queueConfig: 128 frames
	// and 8 MiB by default). transmit is a non-blocking enqueue onto a
	// per-peer writer goroutine, so a stalled peer delays only its own
	// frames; past either bound the oldest queued frame is evicted
	// (drop-oldest), sparing the newest, and counted in Stats().Peers —
	// acked engines retransmit the loss and digest anti-entropy repairs
	// the rest. Only tests lower it, to make a queue overflow cheaply.
	queue queueConfig
	// maxFrame caps the encoded size of one data frame; a pass whose
	// batch exceeds it is packed into several bounded frames. 0 or
	// anything above maxFrameBytes means that transport-wide cap, 64 MiB.
	// Only tests lower it, to exercise packing cheaply.
	maxFrame int
}

// Engine names which of the two variants of the paper's Algorithm 1 a
// store runs once per object.
type Engine int

const (
	// EngineAcked is delta-based BP+RR with acknowledgements: δ-groups
	// are retransmitted until acked, so lost frames are repaired by the
	// engine itself. The default, safe on lossy links.
	EngineAcked Engine = iota
	// EngineDelta is plain delta-based BP+RR, the paper's optimal
	// engine; it assumes frames are never lost. Pair it with digest
	// anti-entropy (DigestEvery) anywhere loss is possible.
	EngineDelta
)

// StoreStats counts what a store has put on the wire.
type StoreStats struct {
	// Frames is the number of frames handed to the peers' write pipelines,
	// counted at enqueue time: data, digests, acknowledgements and hellos.
	Frames int
	// WireBytes is the total bytes of those frames as a socket carries
	// them — the 4-byte length, the 2-byte id length, the sender id on
	// hellos alone, and the message — counted at enqueue time as well.
	WireBytes int
	// WriteFlushes counts the first-transmission passes that ran between
	// ticks because a write asked for one, or a delivery with something to
	// forward to a neighbor the frame's sender has not announced it
	// reaches. A forward to a neighbor it reaches rides the next pass: on a
	// lossless full mesh of plain delta replicas a write causes one flush,
	// not one at its writer and one at each receiver. With the ticks they
	// run at eight per SyncEvery on average, and at most eleven of them run
	// in any one SyncEvery: eight, plus three more of the four a quiet store
	// saves up.
	WriteFlushes int
	// Retransmits counts δ-buffer entries the acked engine sent again
	// because their wait went by without every acknowledgement: the round
	// trip the link has measured, plus one hold, in whole ticks (16 before
	// the link's first sample), then twice that, and so on. Loss causes
	// them, and so does an acknowledgement later than the link has ever
	// seen: 0 in the tests' lossless runs, and at most 0.0003 per update
	// in ten runs of bench's steady workload (5 ms ticks, 2 cores), where
	// a timer of one tick sent ≈0.003 per update again.
	Retransmits int
	// AckFrames counts the frames within Frames that carry nothing but an
	// acknowledgement: the peer was owed one and no data frame left toward
	// it between one SyncEvery and two after it became owed
	// (ackHoldsPerTick) — ≈0.013 per update on bench's steady workload.
	AckFrames int
	// HelloFrames counts the frames within Frames that are a connection's
	// announcement: the first on every connection, one per connected
	// neighbor whenever the set of them changes, and a refresh every 64th
	// tick.
	HelloFrames int
	// IgnoredAcks counts the acknowledgements that retired nothing because
	// they could not be for this store's frames: minted for another
	// incarnation (a peer's queue outliving a restart of this store),
	// naming a sequence number never sent, or from a non-neighbor.
	IgnoredAcks int
	// DigestFrames counts the standalone control frames within Frames —
	// advertisement heartbeats that found no data frame to ride and the
	// drills' hash pushes; the rest, AckFrames and HelloFrames apart, carry
	// data.
	DigestFrames int
	// PiggybackedDigests counts data frames that additionally carried the
	// per-shard digest vector: advertisements that would each have been a
	// standalone DigestFrame without piggybacking.
	PiggybackedDigests int
	// SplitFrames counts the frames that are pieces of a split pass: a
	// tick whose items overflowed the cap toward one peer and went out as
	// k bounded frames adds k here (0 when every pass fit in one frame).
	SplitFrames int
	// OversizedDropped counts irreducible messages larger than the frame
	// cap that had to be dropped (a single object's state). With digest
	// anti-entropy enabled, a steadily growing value means an unshippable
	// object is permanently blocking its shard's convergence — peers will
	// keep requesting the shard every heartbeat; shrink the object.
	OversizedDropped int
	// WantShards counts drills this store stopped at the root: a diverged
	// shard so small here that it sent its side whole and asked for the
	// peer's, without hashing anything.
	WantShards int
	// RepairShards counts the whole-shard closes this store answered with
	// at least one state.
	RepairShards int
	// DedupedWants counts digest mismatches that started no drill, and
	// drill messages that were dropped, because the shard's slot was held
	// by a drill already under way — the Want storms, mirrored drills and
	// third replicas the repair table absorbed.
	DedupedWants int
	// TreeRounds counts the drill messages this store sent below the
	// root's stop: hash pushes and the closes that asked for ranges. One
	// diverged key in a large shard costs three cluster-wide — the
	// starter's level-1 hashes, the peer's level-2 hashes of the one node
	// that differs, the starter's close.
	TreeRounds int
	// RepairRanges counts the node ranges of the closes this store
	// answered with at least one state — the range-limited counterpart
	// of RepairShards.
	RepairRanges int
	// RepairBytes totals the key+state payload bytes this store shipped
	// in closes, both halves: what it sent along when it stopped a drill
	// and what it answered. The drill keeps it proportional to divergence
	// rather than shard size.
	RepairBytes int
	// RepairTimeouts counts drills given up on: a slot found expired —
	// a second without a message from the peer (repairTimeout), and no digest
	// re-match in between — when the next drill took it over. Lost frames
	// show up here.
	RepairTimeouts int
	// DigestShardMismatch counts digest advertisements dropped because
	// their shard count differs from this store's — a misconfigured
	// cluster whose divergence anti-entropy cannot repair.
	DigestShardMismatch int
	// HelloRefused counts the inbound connections this store closed at
	// their hello because it announced another shard count or wire version:
	// the misconfiguration the two counters above only see once a peer's
	// items or digests are already unusable, known before any item is
	// routed. The peer's pipeline redials, so it grows for as long as the
	// skew lasts.
	HelloRefused int
	// Withheld counts the forwards the acked engine did not make because
	// the neighbor a δ-group came from had announced that it sends to the
	// other neighbor itself: on a full mesh, one per δ-group received and
	// other replica.
	Withheld int
	// CatchUpShards counts the shards marked for comparison with one
	// neighbor because another stopped reaching it — its connection here
	// ended, or it said so — and what was withheld on its word may not
	// have arrived there: the store advertises its digests to that
	// neighbor on every tick until each marked shard has matched once.
	CatchUpShards int
	// DroppedItems counts inbound bare items — a drill's close is the one
	// stores send — discarded because the shard index they name is outside
	// this store's shard range: shard-map skew between sender and receiver.
	// Keyed items carry no shard index (this store routes each by its key),
	// so skew drops none of them; but digests and drills are per shard, so
	// every replica in a cluster must still run the same count, which the
	// hello enforces (HelloRefused). A value that grows means a peer that
	// skipped the hello's check.
	DroppedItems int
	// SnapshotsWritten counts shard snapshot files written (shards whose
	// digest had not moved since their last snapshot are skipped and not
	// counted).
	SnapshotsWritten int
	// SnapshotBytes totals the encoded size of the snapshot files
	// written.
	SnapshotBytes int
	// SnapshotRestoredKeys counts objects restored from snapshot files
	// at startup.
	SnapshotRestoredKeys int
	// SnapshotRestoreErrors counts snapshot files skipped at startup
	// because they were unreadable or failed validation (bad checksum,
	// truncation). Each such file contributes nothing — the store falls
	// back to whatever the remaining files and anti-entropy provide —
	// and the store never fails to start over a damaged snapshot.
	SnapshotRestoreErrors int
	// WatchDropped counts change notifications dropped because a
	// watcher's pending buffer was full — a consumer reading its Events
	// channel too slowly. The watcher itself learns the same fact from
	// the Lagged mark on its next event.
	WatchDropped int
	// SyncWorkerShards and SyncWorkerBusyNs are never populated.
	//
	// Deprecated: the shard-work pool they described is gone; they stay
	// declared only because the frozen bench/ module compiles against them.
	SyncWorkerShards []uint64
	SyncWorkerBusyNs []int64
	// Sent is the aggregated protocol-level transmission accounting.
	Sent metrics.Transmission
	// Peers holds the per-peer write-pipeline accounting: frames and
	// bytes enqueued toward each peer, frames and bytes dropped (queue
	// overflow or failed sends), reconnects, and the pipeline's connection
	// state. Frames/WireBytes above count at enqueue time: frames later
	// dropped by a sick pipeline never reach the wire even though they are
	// counted there — Dropped/DroppedBytes is the correction.
	Peers map[string]PeerStats
}

// Add accumulates another snapshot into s, every count field by field —
// by reflection, so that none is missed; benchmarks and examples use it to
// aggregate cluster-wide totals.
func (s *StoreStats) Add(o StoreStats) {
	addCounts(s, &o)
	s.Sent.Add(o.Sent)
	for id, ps := range o.Peers {
		if s.Peers == nil {
			s.Peers = make(map[string]PeerStats)
		}
		cur := s.Peers[id]
		addCounts(&cur, &ps)
		// Connection states, sequence numbers and announcements from
		// different stores are not additive.
		cur.State = ""
		cur.LastSent, cur.LastAcked, cur.LastReceived = 0, 0, 0
		cur.Reaches = nil
		s.Peers[id] = cur
	}
}

// addCounts adds every int field of *o to the same field of *s, two
// pointers to one struct type.
func addCounts(s, o any) {
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Field(i); f.Kind() == reflect.Int {
			f.SetInt(f.Int() + ov.Field(i).Int())
		}
	}
}

// Store is a live replica of a sharded multi-object keyspace: N shards,
// each holding a map of named CRDT objects with its own engine instance
// and δ-buffers. Keys are routed to shards by hash; per-shard outgoing
// deltas are coalesced into bounded batched frames per neighbor on each
// flush or sync tick. Per-shard flags make either pass O(shards with
// something to do), not O(shards). With DigestEvery set, replicas
// additionally exchange per-shard digest vectors and, on a mismatch, drill
// down to the ranges that differ and exchange those (merkle.go), so even
// divergence invisible to the inner engines is repaired while a converged
// idle cluster exchanges only constant-size heartbeats.
//
// This is the deployment model of the paper's Retwis evaluation: many
// independent objects, each with its own δ-buffer, synchronized together.
//
// Store is the shell around the core (core.go): the config defaults, the
// peer network, the clock, the sync loop's one timer, the snapshot loop and
// the public methods. Every call it makes into the core holds core.mu, so
// writes, deliveries, passes and stats reads take turns; the reads of the
// keyspace take only their shard's lock.
type Store struct {
	*core
	net     *peerNet
	started time.Time // the zero of the clock the core is handed (now)
	// wake asks the sync loop for a step before its timer's deadline.
	wake     chan struct{}
	stopping chan struct{}
	stopOnce sync.Once
	loopDone chan struct{}  // closed when syncLoop has returned
	wg       sync.WaitGroup // snapshotLoop + watcher pumps
	// snapMu serializes snapshot passes (snapshotLoop and SnapshotNow);
	// snapLast holds each shard's content digest at its last written
	// snapshot, so unchanged shards are skipped. Both need SnapshotDir.
	snapMu   sync.Mutex
	snapLast []uint64
}

// withDefaults fills in what the config leaves unset.
func (cfg StoreConfig) withDefaults() StoreConfig {
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = time.Second
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	cfg.Shards = 1 << bits.Len(uint(cfg.Shards-1)) // the next power of two
	if cfg.maxFrame <= 0 || cfg.maxFrame > maxFrameBytes {
		cfg.maxFrame = maxFrameBytes
	}
	if cfg.SnapshotDir != "" && cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = defaultSnapshotEvery
	}
	return cfg
}

// ackHoldsPerTick sets the core's hold, SyncEvery/ackHoldsPerTick: an
// owed acknowledgement rides the first data frame toward its neighbor that
// leaves once it has been owed for the hold, and leaves alone, a frame of
// 12 B on the socket plus the cumulative mark's uvarint
// (Stats().AckFrames), once it has been owed for twice that — TCP's
// delayed ACK (RFC 1122 §4.2.3.2), stretched to about one acknowledgement
// per neighbor and tick. One that rides costs ≈6 B (the incarnation and
// the mark), so the hold saves bytes by how few ride. The sender's timer
// allows for it: every round trip the link measures includes the hold, and
// it waits one hold more (link.wait). On bench's steady workload (seed 1;
// B per update, acknowledgement-only frames and retransmissions per
// update), an acknowledgement that rode any data frame and left alone
// after half a tick, under a timer of one tick, read 61.6 / 0.19 / 0.003;
// this hold reads 56.2 / 0.013 / 0. The hold is 0 once the owner ticks
// the store (SyncNow) or closes it.
const ackHoldsPerTick = 1

// StartStore binds the listener, builds one per-object engine per shard,
// and launches the accept and synchronization loops.
func StartStore(cfg StoreConfig) (*Store, error) {
	cfg = cfg.withDefaults()
	started := time.Now()
	c, err := newCore(cfg, newIncarnation(started.UnixNano()))
	if err != nil {
		return nil, err
	}
	ln := cfg.Listener
	if ln == nil {
		ln, err = net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.ListenAddr, err)
		}
	}
	if cfg.SnapshotDir != "" {
		if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			ln.Close()
			return nil, fmt.Errorf("transport: snapshot dir: %w", err)
		}
	}
	s := &Store{
		core:     c,
		net:      newPeerNet(cfg.ID, cfg.Peers, ln, cfg.Dial, cfg.queue),
		started:  started,
		wake:     make(chan struct{}, 1),
		stopping: make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	c.out = s.net
	c.hold = int64(cfg.SyncEvery / ackHoldsPerTick)
	if cfg.SnapshotDir != "" {
		// Restore strictly before joining the mesh: the first digest
		// advertisement must describe the restored keyspace, so peers
		// repair only the staleness gap, not the whole keyspace.
		s.snapLast = make([]uint64, cfg.Shards)
		s.restoreSnapshots()
	}
	s.net.start(s.receive, s.greet, s.part)
	go s.syncLoop()
	if cfg.SnapshotDir != "" {
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	return s, nil
}

// now is the store's monotonic clock, the time the core is handed.
func (s *Store) now() int64 { return int64(time.Since(s.started)) }

// Addr returns the bound listen address (useful with ":0").
func (s *Store) Addr() string { return s.net.addr() }

// ID returns the replica identifier.
func (s *Store) ID() string { return s.cfg.ID }

// NumShards returns the effective (power-of-two) shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Update applies one local operation to the object named by op.Key. It
// takes its turn with the store's other writers — deliveries and passes —
// and returns once the operation is applied: a read that follows sees it.
func (s *Store) Update(op workload.Op) {
	s.mu.Lock()
	wake := s.update(op)
	s.mu.Unlock()
	if wake {
		s.poke()
	}
}

// frameViews pools the views inbound frames are unpacked into: only the
// read goroutines delivering at the moment hold one, and an idle store
// keeps none past a GC, where a view kept per connection would hold a
// large frame's item arrays for as long as the connection lives.
var frameViews = sync.Pool{New: func() any { return new(codec.FrameView) }}

// receive hands the core an inbound frame, on its connection's read
// goroutine, at the time it arrived; inc is the connection's word for the
// incarnation its hello named (peerNet.start).
func (s *Store) receive(from string, inc *uint32, frame []byte) error {
	v := frameViews.Get().(*codec.FrameView)
	wake, err := s.core.deliver(from, inc, v, frame, s.now())
	frameViews.Put(v)
	if wake {
		s.poke()
	}
	return err
}

// greet encodes the hello a connection opens with, on its writer
// goroutine.
func (s *Store) greet(reaches []string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hello(reaches)
}

// part takes the end of the last inbound connection from a neighbor.
func (s *Store) part(from string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gone(from)
}

// poke wakes the sync loop for a step before its timer's deadline.
func (s *Store) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Get returns a snapshot of one object's state, or nil if the key is
// unknown.
func (s *Store) Get(key string) lattice.State {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.ks.ObjectState(key)
	if st == nil {
		return nil
	}
	c := st.Clone()
	if m, ok := c.(*lattice.Map); ok {
		// A map field's entry holds the record's key, a slice of a key
		// chunk of up to 64 KB: a clone the caller keeps must not keep
		// the chunk alive, so it takes the caller's own key instead.
		m.ShareKey(key)
	}
	return c
}

// NumKeys returns the number of distinct objects across all shards.
func (s *Store) NumKeys() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		total += sh.ks.NumKeys()
		sh.mu.RUnlock()
	}
	return total
}

// Keys returns all object keys, sorted.
func (s *Store) Keys() []string {
	all := make([]string, 0, s.NumKeys())
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.ks.Scan("", func(k string, _ lattice.State) bool {
			all = append(all, k)
			return true
		})
		sh.mu.Unlock()
	}
	sort.Strings(all)
	return all
}

// Digest combines the per-shard digests into one 64-bit value. Two stores
// with the same shard count that hold the same keyspace in the same
// states produce equal digests, making convergence checks O(state)
// without shipping states around — and O(shards) on idle stores, O(keys
// written since the last call) otherwise. (The codec is canonical: equal
// states encode to equal bytes.)
func (s *Store) Digest() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := uint64(fnvOffset64)
	var word [8]byte
	for _, d := range s.shardDigests() {
		binary.BigEndian.PutUint64(word[:], d)
		h = fnvFold(h, word[:])
	}
	return h
}

// Memory aggregates the memory footprint across shards.
func (s *Store) Memory() metrics.Memory {
	var total metrics.Memory
	for _, sh := range s.shards {
		sh.mu.Lock() // the engine's Memory uses its scratch buffer
		m := sh.ks.Memory()
		sh.mu.Unlock()
		total.CRDTBytes += m.CRDTBytes
		total.BufferBytes += m.BufferBytes
		total.MetadataBytes += m.MetadataBytes
	}
	return total
}

// Stats returns a snapshot of the wire accounting, including the
// per-peer write-pipeline counters and connection states.
func (s *Store) Stats() StoreStats {
	peers := s.net.peerStats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters(peers)
}

// Ticks returns how many synchronization steps — timer ticks and SyncNow
// calls, not write-triggered flushes — this store has run.
func (s *Store) Ticks() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ticks
}

// SyncNow runs one synchronization tick now, in addition to the timer's.
// An owner that ticks the store itself — with a SyncEvery nobody waits
// out, nothing leaves between two calls — cannot tell it when its peers
// tick next, so from the first call on the store holds no acknowledgement
// back: the core's hold is 0, and one still held leaves with this tick.
func (s *Store) SyncNow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hold = 0
	now := s.now()
	s.tick(now)
	s.sendAt += s.now() - now // the pass's own duration
	s.flushAcks(now)
}

// syncLoop is the store's one timer: it runs the core's step at the
// deadline the last step returned, or sooner when a write or a delivery
// wakes it, and arms the timer for the deadline step returns.
func (s *Store) syncLoop() {
	defer close(s.loopDone)
	timer := time.NewTimer(s.cfg.SyncEvery)
	defer timer.Stop()
	for {
		select {
		case <-s.stopping:
			return
		case <-s.wake:
		case <-timer.C:
		}
		s.mu.Lock()
		start := s.now()
		next, pass := s.step(start)
		now := s.now()
		if pass {
			s.sendAt += now - start // the pass's own duration
		}
		s.mu.Unlock()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Duration(next - now))
	}
}

// Close stops the sync loop and, once it has returned, runs the last pass:
// what is still unsent, every forward still held, and every
// acknowledgement still owed. Then it
// closes every watcher (their Events channels close) and every connection.
// It is idempotent.
func (s *Store) Close() error {
	s.stopOnce.Do(func() {
		close(s.stopping)
		// A peer never acknowledged would go on sending again what this
		// store has applied; a pass the loop is still running ships what it
		// collected before the network closes, and net.close drains both.
		<-s.loopDone
		s.mu.Lock()
		s.hold = 0
		now := s.now()
		s.endHolds() // a held forward is late, never withheld
		s.writeFlush(now)
		s.flushAcks(now)
		s.mu.Unlock()
	})
	s.closeWatchers()
	err := s.net.close()
	s.wg.Wait()
	return err
}
