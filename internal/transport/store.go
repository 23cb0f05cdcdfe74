package transport

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
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
	// connections; fault-injection harnesses wrap it to drop, duplicate
	// or delay frames.
	Dial DialFunc
	// Peers maps neighbor ids to their listen addresses.
	Peers map[string]string
	// Nodes is the full membership (sorted); defaults to ID + peers.
	Nodes []string
	// Shards is the shard count, rounded up to a power of two
	// (default 16). Every replica in a cluster must use the same value:
	// the shard index is frame routing metadata.
	Shards int
	// Factory builds the inner per-object protocol engine
	// (e.g. protocol.NewDeltaBPRR()).
	Factory protocol.Factory
	// ObjType chooses the datatype of each object from its key.
	ObjType func(key string) workload.Datatype
	// SyncEvery is the synchronization period (default 1s): the interval
	// of the sync tick. The tick is the maximum delay of a write, the
	// heartbeat, the clock DigestEvery counts and the clock the acked
	// engine's retransmissions back off in. A write does not wait for
	// it: an Update (or a delivery that leaves something to forward)
	// triggers a flush of what has never been sent, which runs no earlier
	// than SyncEvery/8 after the previous flush or tick — so the period
	// is also the batching budget, at most eight write-triggered flushes
	// per tick. An acknowledgement waits up to SyncEvery/2 for a data
	// frame to ride before it leaves alone. A period nobody waits out
	// (time.Hour) plus explicit SyncNow calls is the manual mode: nothing
	// leaves between two calls but acknowledgements, which leave at once.
	SyncEvery time.Duration
	// PeerQueueLen bounds each peer's outbound queue by frame count
	// (default 128). transmit is a non-blocking enqueue onto a per-peer
	// writer goroutine, so a stalled peer delays only its own frames;
	// when a queue exceeds either bound, the oldest queued frame is
	// evicted (drop-oldest) and counted in Stats().Peers — acked engines
	// retransmit the loss and digest anti-entropy repairs the rest.
	PeerQueueLen int
	// PeerQueueBytes bounds each peer's outbound queue by encoded bytes
	// (default 8 MiB). Frames vary ~100x in size, so a count bound alone
	// budgets almost nothing: 128 heartbeats are a few KiB while 128 full
	// batches can be GiBs. Eviction keeps the queue within whichever
	// bound it crosses first, always sparing the newest frame so an
	// over-budget frame is still shipped rather than wedged.
	PeerQueueBytes int
	// DigestEvery enables digest anti-entropy: every DigestEvery-th sync
	// tick (write-triggered flushes do not count) the store also ships
	// its per-shard digest vector to every peer; a peer whose digests
	// differ drills into those shards for the ranges worth shipping.
	// This repairs divergence the inner engines cannot see (lost frames
	// under clear-after-send engines, healed partitions) at a
	// near-constant per-tick cost of 8 bytes per shard once converged.
	// 0 disables digests (delta traffic only).
	DigestEvery int
	// MaxFrameBytes caps the encoded size of one data frame; a sync tick
	// whose batch exceeds it is packed into multiple bounded frames. 0 or
	// anything above the transport-wide maximum means the 64 MiB
	// transport cap. Tests lower it to exercise packing cheaply.
	MaxFrameBytes int
	// RepairTimeout bounds how long one shard's drill — started here or
	// served — may go without a message from its peer before a digest
	// mismatch may start another (default 1s). While a drill is under way
	// further mismatching heartbeats for that shard, and other peers'
	// drills on it, are deduplicated rather than run — the Want-storm fix.
	// It doubles as the retry cadence when a drill's frame is lost.
	RepairTimeout time.Duration
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
}

// StoreStats counts what a store has put on the wire.
type StoreStats struct {
	// Frames is the number of TCP frames written (data and digests).
	Frames int
	// WireBytes is the total bytes written, including frame headers.
	WireBytes int
	// WriteFlushes counts the first-transmission passes that ran between
	// ticks because a write (or a delivery with something to forward)
	// asked for one: at most eight per SyncEvery.
	WriteFlushes int
	// Retransmits counts δ-buffer entries the acked engine sent again
	// because a full tick (then 2, 4, … ticks) went by without every
	// acknowledgement. Loss causes them, and so does an acknowledgement
	// that arrives after the sender's next tick — held by the receiver for
	// a frame to ride (up to SyncEvery/2), queued, or delayed by the
	// scheduler — so on a lossless link they are rare, not absent: ≈0.006
	// per update on bench's steady workload (5 ms ticks, 2 cores).
	Retransmits int
	// AckFrames counts the frames within Frames that carry nothing but an
	// acknowledgement: the peer was owed one and no data frame left toward
	// it within the hold (SyncEvery/2) to carry it.
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
	// SplitFrames counts the frames that are pieces of a split batch:
	// a tick whose batch overflowed the cap and went out as k bounded
	// frames adds k here (0 when every batch fit in one frame).
	SplitFrames int
	// OversizedDropped counts irreducible messages larger than the frame
	// cap that had to be dropped (a single object's state exceeding
	// MaxFrameBytes). With digest anti-entropy enabled, a steadily
	// growing value means an unshippable object is permanently blocking
	// its shard's convergence — peers will keep requesting the shard
	// every heartbeat; raise MaxFrameBytes or shrink the object.
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
	// RepairTimeout without a message from the peer, and no digest
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
	// DroppedItems counts inbound shard items discarded because their
	// shard index was outside this store's shard range — shard-map skew
	// between sender and receiver (the shard index is frame routing
	// metadata, so every replica in a cluster must run the same count).
	// A steadily growing value means misconfiguration: that data never
	// applies here, and digest vectors of mismatched length are likewise
	// incomparable, so anti-entropy cannot repair it either.
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
	// SyncWorkerShards is never populated.
	//
	// Deprecated: the shard-work pool it described is gone — one goroutine
	// runs a pass. The field stays declared only because the frozen bench/
	// module compiles against it.
	SyncWorkerShards []uint64
	// SyncWorkerBusyNs is never populated.
	//
	// Deprecated: as SyncWorkerShards.
	SyncWorkerBusyNs []int64
	// Sent is the aggregated protocol-level transmission accounting.
	Sent metrics.Transmission
	// Peers holds the per-peer write-pipeline accounting: frames and
	// bytes enqueued toward each peer, frames and bytes dropped (queue
	// overflow or failed sends), frames coalesced on drain, reconnects,
	// and the pipeline's connection state. Frames/WireBytes above count
	// at enqueue time: frames later dropped by a sick pipeline, and the
	// per-frame headers saved when a drained backlog is coalesced, never
	// reach the wire even though they are counted here — Peers is where
	// both corrections are visible (Dropped/DroppedBytes, Coalesced).
	Peers map[string]PeerStats
}

// Add accumulates another snapshot into s, field by field; benchmarks and
// examples use it to aggregate cluster-wide totals without hand-summing
// (and silently missing) fields.
func (s *StoreStats) Add(o StoreStats) {
	s.Frames += o.Frames
	s.WireBytes += o.WireBytes
	s.WriteFlushes += o.WriteFlushes
	s.Retransmits += o.Retransmits
	s.AckFrames += o.AckFrames
	s.HelloFrames += o.HelloFrames
	s.IgnoredAcks += o.IgnoredAcks
	s.DigestFrames += o.DigestFrames
	s.PiggybackedDigests += o.PiggybackedDigests
	s.SplitFrames += o.SplitFrames
	s.OversizedDropped += o.OversizedDropped
	s.WantShards += o.WantShards
	s.RepairShards += o.RepairShards
	s.DedupedWants += o.DedupedWants
	s.TreeRounds += o.TreeRounds
	s.RepairRanges += o.RepairRanges
	s.RepairBytes += o.RepairBytes
	s.RepairTimeouts += o.RepairTimeouts
	s.DigestShardMismatch += o.DigestShardMismatch
	s.HelloRefused += o.HelloRefused
	s.Withheld += o.Withheld
	s.CatchUpShards += o.CatchUpShards
	s.DroppedItems += o.DroppedItems
	s.SnapshotsWritten += o.SnapshotsWritten
	s.SnapshotBytes += o.SnapshotBytes
	s.SnapshotRestoredKeys += o.SnapshotRestoredKeys
	s.SnapshotRestoreErrors += o.SnapshotRestoreErrors
	s.WatchDropped += o.WatchDropped
	s.Sent.Add(o.Sent)
	for id, ps := range o.Peers {
		if s.Peers == nil {
			s.Peers = make(map[string]PeerStats)
		}
		cur := s.Peers[id]
		cur.Enqueued += ps.Enqueued
		cur.EnqueuedBytes += ps.EnqueuedBytes
		cur.Dropped += ps.Dropped
		cur.DroppedBytes += ps.DroppedBytes
		cur.Coalesced += ps.Coalesced
		cur.Reconnects += ps.Reconnects
		cur.Queued += ps.Queued
		cur.QueuedBytes += ps.QueuedBytes
		cur.InFlight += ps.InFlight
		// Connection states, sequence numbers and announcements from
		// different stores are not additive.
		cur.State = ""
		cur.LastSent, cur.LastAcked, cur.LastReceived = 0, 0, 0
		cur.Reaches = nil
		s.Peers[id] = cur
	}
}

// shard is one lock domain: a per-object engine (a keyspace partition)
// plus the mutex that serializes access to it. Updates and syncs on keys
// hashing to different shards never contend.
//
// unsent, dirty and the digest are read without the mutex (atomically),
// so flushes, ticks and the digest heartbeat skip clean shards without
// taking their locks; all are only written while holding mu, which keeps
// the flags coherent with the engine state they describe.
type shard struct {
	mu     sync.Mutex
	engine protocol.KeyedEngine
	// od and fl are the same engine through its per-object delivery and
	// first-transmission interfaces, asserted once at construction for
	// the hot paths.
	od protocol.ObjectDeliverer
	fl protocol.Flusher
	// unsent marks a shard a flush must visit: a local update or an
	// inbound delivery has left its engine something never sent.
	// dirty marks a shard a tick must visit: that, or objects still
	// waiting (for acks, so that the tick can decide to send again).
	unsent, dirty atomic.Bool
	// digest is this shard's content digest: the XOR of the content hashes
	// its engine keeps per key (keyHash), as of the last digestLocked. It is
	// current while digestOK — until the engine next has a stale key.
	digest   atomic.Uint64
	digestOK atomic.Bool
	// leaf is the Merkle leaf-hash vector drills read, nil unless one has
	// folded it since the last mutation (see ensureLeavesLocked). Unlike
	// the digest it is only touched under mu, so a plain field suffices.
	leaf *leafVec
}

// touched flags the shard for the passes its engine now needs and, if a
// key's state may have changed, marks the digest out of date and hands the
// leaf vector back; callers hold sh.mu having just used the engine. It
// reports whether a flush has something to ship.
func (sh *shard) touched() bool {
	if sh.engine.Stale() {
		sh.digestOK.Store(false)
		sh.dropLeavesLocked()
	}
	if sh.fl.Waiting() {
		sh.dirty.Store(true)
	}
	if !sh.fl.Unsent() {
		return false
	}
	sh.unsent.Store(true)
	return true
}

// pass runs one flush (first transmissions) or tick (Sync) over the
// shard's engine and re-derives the flags; callers hold sh.mu.
func (sh *shard) pass(tick bool, send protocol.Sender) {
	sh.unsent.Store(false)
	if tick {
		sh.engine.Sync(send)
	} else {
		sh.fl.Flush(send)
	}
	sh.dirty.Store(sh.fl.Waiting())
}

// due reports, without the lock, whether the given kind of pass has to
// visit the shard.
func (sh *shard) due(tick bool) bool {
	if tick {
		return sh.dirty.Load()
	}
	return sh.unsent.Load()
}

// Store is a live replica of a sharded multi-object keyspace: N shards,
// each holding a map of named CRDT objects with its own engine instance,
// mutex, and δ-buffers. Keys are routed to shards by hash; per-shard
// outgoing deltas are coalesced into bounded batched frames per neighbor
// on each flush or sync tick. Per-shard flags make either pass O(shards
// with something to do), not O(shards): clean shards are skipped without
// taking their locks. With DigestEvery set, replicas additionally exchange
// per-shard digest vectors and, on a mismatch, drill down to the ranges
// that differ and exchange those (merkle.go), so even divergence invisible
// to the inner engines is repaired while a converged idle cluster
// exchanges only constant-size heartbeats.
//
// This is the deployment model of the paper's Retwis evaluation: many
// independent objects, each with its own δ-buffer, synchronized together.
type Store struct {
	cfg       StoreConfig
	net       *peerNet
	shards    []*shard
	mask      uint32
	neighbors []string // sorted peer ids
	// links holds the acknowledgement state per neighbor, linkList the
	// same in neighbors order; both fixed at construction.
	links    map[string]*link
	linkList []*link
	// reach is what the neighbors have announced they reach, shared with
	// every shard's engines; nil when the engine takes no notice of it,
	// and then no neighbor is ever caught up with either (setReach).
	reach *protocol.Reach
	ticks atomic.Uint64
	// deliverLocks counts the shard-lock acquisitions of the inbound
	// delivery path — one per touched shard per frame, an invariant an
	// instrumented test pins.
	deliverLocks atomic.Uint64
	// wire holds the counters every flush bumps, as atomics; stats, under
	// statsMu, the rest.
	wire    wireCounters
	statsMu sync.Mutex
	stats   StoreStats
	repair  repairTable
	// The write-triggered flush. flushWanted is set by the first Update
	// or forwarding delivery after a pass and cleared by the next pass
	// (flush or tick); the false→true transition wakes the sync loop,
	// which runs the flush once lastSend — when the previous pass ended,
	// on started's monotonic clock — is a window in the past.
	flushWanted atomic.Bool
	wake        chan struct{}
	started     time.Time
	lastSend    atomic.Int64
	// manual is set by the first SyncNow call: a store ticked by its
	// owner cannot know when its peers tick next, so it never holds an
	// acknowledgement back (see ackHold).
	manual atomic.Bool
	// snapMu serializes snapshot passes (the ticker loop and explicit
	// SnapshotNow calls); snapLast holds each shard's content digest at
	// its last written snapshot, so unchanged shards are skipped. Both
	// are only used when cfg.SnapshotDir is set.
	snapMu   sync.Mutex
	snapLast []uint64
	// digestVecs is the free list of digest vectors (see getDigestVec).
	digestVecs chan []uint64
	stopping   chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup // syncLoop + watcher pumps
	watchMu    sync.RWMutex
	watchers   []*Watcher
	// watcherCount mirrors len(watchers) for the lock-free hasWatchers
	// check on the delivery and update hot paths; written under watchMu.
	watcherCount atomic.Int32
}

// nextPow2 rounds n up to the next power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// StartStore binds the listener, builds one per-object engine per shard,
// and launches the accept and synchronization loops.
func StartStore(cfg StoreConfig) (*Store, error) {
	if cfg.Factory == nil || cfg.ObjType == nil {
		return nil, fmt.Errorf("transport: StoreConfig needs Factory and ObjType")
	}
	if len(cfg.ID) > maxIDBytes {
		return nil, fmt.Errorf("transport: replica id is %d bytes, a frame carries at most %d", len(cfg.ID), maxIDBytes)
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = time.Second
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	cfg.Shards = nextPow2(cfg.Shards)
	if cfg.MaxFrameBytes <= 0 || cfg.MaxFrameBytes > maxFrameBytes {
		cfg.MaxFrameBytes = maxFrameBytes
	}
	if cfg.RepairTimeout <= 0 {
		cfg.RepairTimeout = defaultRepairTimeout
	}
	if cfg.SnapshotDir != "" && cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = defaultSnapshotEvery
	}
	neighbors := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		neighbors = append(neighbors, id)
	}
	sort.Strings(neighbors)
	nodes := cfg.Nodes
	if nodes == nil {
		nodes = append([]string{cfg.ID}, neighbors...)
		sort.Strings(nodes)
	}
	// Only an engine that withholds on a neighbor's word is given the
	// table of what the neighbors have said.
	var reach *protocol.Reach
	probe := cfg.Factory(protocol.Config{ID: cfg.ID, Neighbors: neighbors, Nodes: nodes, Datatype: cfg.ObjType("")})
	if _, ok := probe.(protocol.ReachConsulter); ok {
		reach = protocol.NewReach(neighbors)
	}
	factory := protocol.NewPerObject(cfg.Factory, cfg.ObjType)
	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		eng := factory(protocol.Config{
			ID:        cfg.ID,
			Neighbors: neighbors,
			Nodes:     nodes,
			Reach:     reach,
		})
		keyed, ok := eng.(protocol.KeyedEngine)
		if !ok {
			return nil, fmt.Errorf("transport: per-object engine does not implement KeyedEngine")
		}
		od, ok := eng.(protocol.ObjectDeliverer)
		if !ok {
			return nil, fmt.Errorf("transport: per-object engine does not implement ObjectDeliverer")
		}
		fl, ok := eng.(protocol.Flusher)
		if !ok {
			return nil, fmt.Errorf("transport: per-object engine does not implement Flusher")
		}
		shards[i] = &shard{engine: keyed, od: od, fl: fl}
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
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
		cfg: cfg,
		net: newPeerNet(cfg.ID, cfg.Peers, ln, cfg.Dial, queueConfig{
			frames: cfg.PeerQueueLen,
			bytes:  cfg.PeerQueueBytes,
			// Drain-time coalescing must never assemble a frame the
			// packer would have refused to emit: both budgets come from
			// the same formula.
			maxMsg: maxMsgFor(cfg.MaxFrameBytes, cfg.ID),
		}),
		shards:     shards,
		mask:       uint32(cfg.Shards - 1),
		neighbors:  neighbors,
		links:      make(map[string]*link, len(neighbors)),
		linkList:   make([]*link, len(neighbors)),
		reach:      reach,
		stopping:   make(chan struct{}),
		wake:       make(chan struct{}, 1),
		started:    time.Now(),
		digestVecs: make(chan []uint64, 4),
	}
	inc := newIncarnation()
	for i, id := range neighbors {
		s.linkList[i] = newLink(inc)
		s.links[id] = s.linkList[i]
	}
	s.repair = repairTable{
		timeout: cfg.RepairTimeout,
		entries: make([]repairEntry, cfg.Shards),
	}
	if cfg.SnapshotDir != "" {
		// Restore strictly before joining the mesh: the first digest
		// advertisement must describe the restored keyspace, so peers
		// repair only the staleness gap, not the whole keyspace.
		s.snapLast = make([]uint64, cfg.Shards)
		s.restoreSnapshots()
	}
	s.net.start(s.deliver, s.helloFrame, func(from string) { s.setReach(from, nil) })
	s.wg.Add(1)
	go s.syncLoop()
	if cfg.SnapshotDir != "" {
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Store) Addr() string { return s.net.addr() }

// ID returns the replica identifier.
func (s *Store) ID() string { return s.cfg.ID }

// NumShards returns the effective (power-of-two) shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// fnv32a is an allocation-free FNV-1a over a key (hash/fnv's hasher
// escapes through the interface and would allocate on every Update/Get).
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// shardOf routes a key to its shard by FNV-1a hash.
func (s *Store) shardOf(key string) *shard {
	return s.shards[fnv32a(key)&s.mask]
}

// Update applies one local operation to the object named by op.Key.
// Only that key's shard is locked; updates on different shards proceed
// concurrently.
func (s *Store) Update(op workload.Op) {
	sh := s.shardOf(op.Key)
	sh.mu.Lock()
	sh.engine.LocalOp(op)
	unsent := sh.touched()
	sh.mu.Unlock()
	if unsent {
		s.requestFlush()
	}
	if s.hasWatchers() {
		s.notifyWatchers(op.Key)
	}
}

// Get returns a snapshot of one object's state, or nil if the key is
// unknown.
func (s *Store) Get(key string) lattice.State {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.engine.ObjectState(key)
	if st == nil {
		return nil
	}
	return st.Clone()
}

// NumKeys returns the number of distinct objects across all shards.
func (s *Store) NumKeys() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.engine.NumKeys()
		sh.mu.Unlock()
	}
	return total
}

// Keys returns all object keys, sorted.
func (s *Store) Keys() []string {
	all := make([]string, 0, s.NumKeys())
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.engine.Scan("", func(k string, _ lattice.State) bool {
			all = append(all, k)
			return true
		})
		sh.mu.Unlock()
	}
	sort.Strings(all)
	return all
}

// shardDigest returns one shard's content digest, without taking the
// shard lock when no key of it has been touched since the last call — the
// common case on an idle keyspace.
func (s *Store) shardDigest(sh *shard) uint64 {
	if sh.digestOK.Load() {
		return sh.digest.Load()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.digestLocked()
}

// digestLocked brings the shard's content digest up to date under an
// already-held sh.mu — the snapshotter uses it directly so the digest it
// records and the contents it serializes come from one lock hold. Only
// the keys touched since the last call are encoded and hashed again; each
// one's old hash leaves the digest as its new one enters (XOR is its own
// inverse), so a digest costs what changed, not what the shard holds.
func (sh *shard) digestLocked() uint64 {
	d := sh.digest.Load()
	if sh.digestOK.Load() {
		return d
	}
	var scratch []byte
	sh.engine.Rehash(func(k string, st lattice.State, hash *uint64) {
		scratch = codec.AppendState(scratch[:0], st)
		h := keyHash(k, scratch)
		d ^= *hash ^ h
		*hash = h
	})
	sh.digest.Store(d)
	sh.digestOK.Store(true)
	return d
}

// shardDigests returns the per-shard digest vector in a pooled slice;
// callers hand it back with putDigestVec once no frame can reference it
// (packing copies the vector into frame bytes synchronously). Clean
// shards — all of them, on an idle store — are read without a lock,
// allocation-free.
func (s *Store) shardDigests() []uint64 {
	vec := s.getDigestVec()
	for i, sh := range s.shards {
		vec[i] = s.shardDigest(sh)
	}
	return vec
}

// getDigestVec hands out a per-shard digest vector from the store's
// free list. The free list is a typed channel rather than a sync.Pool
// so that a Get/Put cycle is allocation-free (boxing a slice in an
// interface allocates) — the clean-store digest path is pinned at zero
// allocations.
func (s *Store) getDigestVec() []uint64 {
	select {
	case v := <-s.digestVecs:
		return v
	default:
		return make([]uint64, len(s.shards))
	}
}

// putDigestVec returns a vector once nothing can reference it — frame
// packing copies the digest vector into frame bytes synchronously, so
// after flush returns the vector is free.
func (s *Store) putDigestVec(v []uint64) {
	select {
	case s.digestVecs <- v:
	default:
	}
}

// Digest combines the per-shard digests into one 64-bit value. Two stores
// with the same shard count that hold the same keyspace in the same
// states produce equal digests, making convergence checks O(state)
// without shipping states around — and O(shards) on idle stores, O(keys
// written since the last call) otherwise. (The codec is canonical: equal
// states encode to equal bytes.)
func (s *Store) Digest() uint64 {
	h := uint64(fnvOffset64)
	var word [8]byte
	for _, sh := range s.shards {
		binary.BigEndian.PutUint64(word[:], s.shardDigest(sh))
		h = fnvFold(h, word[:])
	}
	return h
}

// Memory aggregates the memory footprint across shards.
func (s *Store) Memory() metrics.Memory {
	var total metrics.Memory
	for _, sh := range s.shards {
		sh.mu.Lock()
		m := sh.engine.Memory()
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
	s.statsMu.Lock()
	st := s.stats
	s.statsMu.Unlock()
	s.wire.snapshot(&st)
	st.RepairTimeouts = s.repair.expired()
	for _, sh := range s.shards {
		if r, ok := sh.engine.(interface{ Retransmits() uint64 }); ok {
			sh.mu.Lock()
			st.Retransmits += int(r.Retransmits())
			sh.mu.Unlock()
		}
	}
	st.Peers = s.net.peerStats()
	for i, id := range s.neighbors {
		ps := st.Peers[id]
		s.linkList[i].fill(&ps)
		if s.reach != nil {
			ps.Reaches = s.reach.Of(id)
		}
		st.Peers[id] = ps
	}
	if s.reach != nil {
		st.Withheld = int(s.reach.Withheld())
	}
	return st
}

// Ticks returns how many synchronization steps — timer ticks and SyncNow
// calls, not write-triggered flushes — this store has run.
func (s *Store) Ticks() uint64 { return s.ticks.Load() }

// outBatch accumulates per-destination shard items in first-send order.
type outBatch struct {
	perDest map[string][]protocol.ShardItem
	order   []string
}

func newOutBatch() *outBatch {
	return &outBatch{perDest: make(map[string][]protocol.ShardItem)}
}

// add appends one emission.
func (b *outBatch) add(shardIdx uint32, to string, m protocol.Msg) {
	if len(b.perDest[to]) == 0 {
		b.order = append(b.order, to)
	}
	b.perDest[to] = append(b.perDest[to], protocol.ShardItem{Shard: shardIdx, Msg: m})
}

// sender adapts a shard's engine sends into tagged shard items.
func (b *outBatch) sender(shardIdx uint32) protocol.Sender {
	return func(to string, m protocol.Msg) {
		b.add(shardIdx, to, m)
	}
}

// reset clears the batch for reuse, keeping the per-destination slice
// capacity (the items themselves are zeroed so pooled batches do not pin
// message memory between frames).
func (b *outBatch) reset() {
	for _, to := range b.order {
		items := b.perDest[to]
		clear(items)
		b.perDest[to] = items[:0]
	}
	b.order = b.order[:0]
}

// frameViews pools the unpacked-frame views the inbound path fills per
// frame; a connection at steady state recycles one view (and its item
// slices) across every frame it receives.
var frameViews = sync.Pool{New: func() any { return new(codec.FrameView) }}

// deliverState bundles the per-frame delivery scratch, so one pool Get
// covers the outbound batch and applyAck's buffers.
type deliverState struct {
	b *outBatch
	// acked, ack and key are applyAck's scratch: the δ-groups of the
	// frames an acknowledgement settled, the message each is handed to
	// its engine as, and the key view that goes with it.
	acked []ackItem
	ack   protocol.AckMsg
	key   []byte
}

var deliverStates = sync.Pool{New: func() any { return &deliverState{b: newOutBatch()} }}

func getDeliverState() *deliverState { return deliverStates.Get().(*deliverState) }

func (d *deliverState) release() {
	d.b.reset()
	d.ack.Seqs = nil
	deliverStates.Put(d)
}

// noReply is the Sender a delivery is handed: neither store engine answers
// one — an acked engine's acknowledgement is the link's (link.go). The one
// answer either has, an AckMsg to a δ-group that spells out its entry seqs
// (the per-object form, older than the link header, which a peer may still
// put in a frame), has no wire form and ends here.
func noReply(string, protocol.Msg) {}

// flushesPerTick is the fixed share of SyncEvery that separates two
// passes: a write-triggered flush runs no earlier than SyncEvery/8 after
// the previous flush or tick. A write used to wait for the tick — 2.34 of
// the 3.29 ms visible_p50_ms on bench's steady workload (5 ms ticks), ~10
// of ~12 ms on the three 20 ms ones. The fraction bounds the wait of a
// write that lands right after a pass and the frames a writer that never
// pauses can cause (eight per peer and period). On the 20 ms workloads it
// is the median itself (2.0–2.3 ms at an eighth). On steady most flushes
// find the store idle and leave at once, so it hardly shows: one run
// each, seed 7, visible_p50_ms / frames per update 1.18 / 2.16 at a
// quarter, 1.16 / 2.57 at an eighth, 1.03 / 2.65 at a sixteenth (1.19
// frames per update when every write waited for the tick).
const flushesPerTick = 8

// ackHoldsPerTick is the fixed share of SyncEvery an owed acknowledgement
// waits for a data frame toward its neighbor to ride: at most SyncEvery/2,
// after which it leaves alone, an 18 B frame (Stats().AckFrames). Since
// nothing is forwarded on a full mesh (PR 23) such frames were 1.17 per
// update and ≈21 of the 101 B per update on bench's steady workload when
// each left at once; the trade is TCP's delayed ACK (RFC 1122 §4.2.3.2).
// The hold must stay well inside the sender's retransmission timer: an
// entry sent on a tick is sent again on the next, one full SyncEvery
// later, so half a tick of hold leaves the other half for the round trip
// and the timers' slack. Measured on steady (seed 1, one run each; B per
// update, acknowledgement-only frames and retransmissions per update):
// none 100.9 / 1.17 / 0.002, a quarter of a tick 90.0 / 0.34 / 0.004, a
// third 89.3 / 0.29 / 0.004, half 86.7 / 0.12 / 0.006, a whole tick
// 86.0 / 0.02 / 0.025 — where held acknowledgements start to lose the race
// against the sender's tick. Half is the knee.
const ackHoldsPerTick = 2

// requestFlush asks the sync loop for a first-transmission pass. All but
// the first request since the last pass return after one atomic load.
func (s *Store) requestFlush() {
	if s.flushWanted.Load() || !s.flushWanted.CompareAndSwap(false, true) {
		return
	}
	s.poke()
}

// poke wakes the sync loop, to run a requested flush or to arm its timer
// for an acknowledgement's hold.
func (s *Store) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// ackHold is how long, on the store's clock, an owed acknowledgement may
// wait for a data frame to ride. A store ticked by hand holds none — its
// peers may tick, and send again, at any moment — and nor does one that is
// closing: its last pass sends everything it owes.
func (s *Store) ackHold() int64 {
	select {
	case <-s.stopping:
		return 0
	default:
	}
	if s.manual.Load() {
		return 0
	}
	return int64(s.cfg.SyncEvery / ackHoldsPerTick)
}

// sinceStart is the store's monotonic clock.
func (s *Store) sinceStart() int64 { return int64(time.Since(s.started)) }

// SyncNow runs one synchronization tick now, in addition to the timer's.
// A store whose owner ticks it — the manual mode, with a SyncEvery nobody
// waits out — sends nothing between two calls, and from the first call on
// never holds an acknowledgement back (see ackHold): one still held from
// before leaves with this tick.
func (s *Store) SyncNow() {
	s.manual.Store(true)
	s.tick()
	s.flushAcks(s.sinceStart())
}

// tick runs one synchronization step over the dirty shards and flushes
// the coalesced frames: what has never been sent, and what the acked
// engines decide to send again — retransmissions happen here only. Clean
// shards — the steady state of an idle keyspace — are skipped without
// taking their locks, so the tick is O(dirty shards). Every DigestEvery
// ticks the per-shard digest vector goes out with the same flush:
// piggybacked on a data frame to each peer that is getting one anyway, as
// a standalone heartbeat only to peers the tick has nothing else to say
// to (every peer, on an idle tick).
func (s *Store) tick() {
	s.flushWanted.Store(false) // this pass serves the request
	d := getDeliverState()
	defer d.release()
	b := d.b
	tick := s.ticks.Add(1)
	for _, lk := range s.linkList {
		lk.age(tick)
	}
	s.collect(b, true)
	if tick%helloEvery == 0 {
		s.net.announce()
	}
	// The digest vector goes to every peer on a DigestEvery tick, riding a
	// data frame where there is one, and standalone on every tick to the
	// neighbors this store is catching up with.
	regular := s.cfg.DigestEvery > 0 && tick%uint64(s.cfg.DigestEvery) == 0
	var vec, ride []uint64
	if regular || s.catchingUp() {
		vec = s.shardDigests()
		defer s.putDigestVec(vec)
		if regular {
			ride = vec
		}
	}
	covered := s.flush(b, ride)
	s.lastSend.Store(s.sinceStart())
	if vec == nil {
		return
	}
	for i, to := range s.neighbors {
		// A neighbor being caught up with is asked for its vector back —
		// it may advertise on no schedule of its own — once the pipeline to
		// it is up: one that is gone for good is dialed, not sent to.
		echo := s.linkList[i].catchUp.left.Load() > 0 && s.net.connect(to)
		if _, ok := covered[to]; !echo && (!regular || ok) {
			continue
		}
		m := protocol.NewDigestMsg(vec)
		m.Echo = echo
		s.transmitMsg(to, m, frameDigest)
	}
}

// helloEvery is the number of ticks between two refreshes of the hello on
// every connection. A hello is only ever lost to a fault — it bypasses the
// queue — and until the next one the neighbor forwards as if it had never
// been told, which costs bytes, not convergence; so the refresh is a
// constant, rare enough to weigh nothing (one small frame per neighbor and
// 64 ticks).
const helloEvery = 64

// catchingUp reports whether any neighbor has a shard left to compare.
func (s *Store) catchingUp() bool {
	for _, lk := range s.linkList {
		if lk.catchUp.left.Load() > 0 {
			return true
		}
	}
	return false
}

// writeFlush is the pass between two ticks: first transmissions only —
// no retransmission, no digest advertisement, no heartbeat, and Ticks
// does not advance. A pass that finds no shard with anything unsent takes
// no lock and allocates nothing.
func (s *Store) writeFlush() {
	s.flushWanted.Store(false) // this pass serves the request
	if s.anyDue(false) {
		d := getDeliverState()
		s.collect(d.b, false)
		s.flush(d.b, nil)
		d.release()
	}
	s.wire.writeFlushes.Add(1)
	s.lastSend.Store(s.sinceStart())
}

// anyDue reports, without a lock, whether the given kind of pass has a
// shard to visit.
func (s *Store) anyDue(tick bool) bool {
	for _, sh := range s.shards {
		if sh.due(tick) {
			return true
		}
	}
	return false
}

// collect runs the per-shard stage of a pass — a tick (engine.Sync over
// the dirty shards) or a flush (first transmissions over the shards with
// something unsent) — accumulating every engine emission on b in
// ascending shard order, each shard's under its own lock.
func (s *Store) collect(b *outBatch, tick bool) {
	for i, sh := range s.shards {
		if !sh.due(tick) {
			continue
		}
		sh.mu.Lock()
		sh.pass(tick, b.sender(uint32(i)))
		sh.mu.Unlock()
	}
}

// flush packs the accumulated items into bounded frames per destination
// and transmits them; vec, when non-nil, is piggybacked onto one frame
// per destination when it fits, and the returned set names the peers it
// reached. Callers must not hold any shard lock: a slow peer can then
// never block updates or inbound handling on other connections.
func (s *Store) flush(b *outBatch, vec []uint64) map[string]struct{} {
	if len(b.order) == 0 {
		return nil
	}
	var covered map[string]struct{}
	var t wireTally
	for _, to := range b.order {
		if s.flushTo(to, b.perDest[to], vec, &t) {
			if covered == nil {
				covered = make(map[string]struct{})
			}
			covered[to] = struct{}{}
		}
	}
	s.wire.add(&t)
	return covered
}

// flushTo packs and transmits one destination's items, reporting whether
// vec rode one of the frames. A neighbor's frames are numbered on its
// link, whose packMu is held until they are queued, in order.
func (s *Store) flushTo(to string, items []protocol.ShardItem, vec []uint64, t *wireTally) bool {
	lk := s.links[to]
	if lk != nil {
		lk.packMu.Lock()
		defer lk.packMu.Unlock()
	}
	res, err := packFrames(items, vec, s.maxMsgBytes(), lk)
	if err != nil {
		// Engines produced an unencodable message: a programming
		// error in the engine/codec pairing.
		panic(err)
	}
	if len(res.frames) > 1 {
		t.split += len(res.frames)
	}
	t.oversized += res.oversized
	for _, f := range res.frames {
		kind := frameData
		if f.digests {
			kind = framePiggyback
		}
		s.transmit(to, f.data, f.cost, kind, t)
	}
	return res.digestsAttached
}

// flushAcks sends, at now on the store's clock, a frame that carries
// nothing else to every neighbor whose acknowledgement has been owed for
// its whole hold (ackHold), and returns when the next hold still running
// ends — math.MaxInt64 when none is. Until then the acknowledgement waits
// for a data frame toward that neighbor, which takes it (packFrames). The
// sync loop runs it after every pass and whenever its timer fires; with
// nobody owed it costs one atomic load per neighbor.
func (s *Store) flushAcks(now int64) int64 {
	hold := s.ackHold()
	next := int64(math.MaxInt64)
	for i, lk := range s.linkList {
		if !lk.owed.Load() {
			continue
		}
		if due := lk.owedAt.Load() + hold; due > now {
			next = min(next, due)
		} else {
			s.sendAck(s.neighbors[i], lk)
		}
	}
	return next
}

// sendAck ships the acknowledgement to is owed, if it still is, as a
// sharded frame with a link header and no items: the hold is over and no
// data frame took it.
func (s *Store) sendAck(to string, lk *link) {
	ack, ok := lk.takeAck()
	if !ok {
		return
	}
	link := protocol.LinkHeader{Ack: ack}
	data := codec.AppendShardedHeader(make([]byte, 0, codec.ShardedHeaderSize(link, nil, 0)), link, nil, 0)
	var t wireTally
	s.transmit(to, data, metrics.Transmission{Messages: 1, MetadataBytes: link.MetadataBytes()}, frameAck, &t)
	s.wire.add(&t)
}

// maxMsgFor is the largest encoded message that still fits one frame
// under the given cap once the frame header (2-byte sender length plus
// the sender id; the 4-byte length prefix is not counted against the cap
// by receivers) is accounted for. Both the packer's frame budget and the
// write pipeline's coalescing budget derive from it.
func maxMsgFor(maxFrame int, id string) int {
	return maxFrame - 2 - len(id)
}

func (s *Store) maxMsgBytes() int {
	return maxMsgFor(s.cfg.MaxFrameBytes, s.cfg.ID)
}

// frameKind classifies a frame for the wire accounting.
type frameKind int

const (
	// frameData carries shard items only.
	frameData frameKind = iota
	// frameDigest is a standalone DigestMsg heartbeat or TreeMsg hash push.
	frameDigest
	// framePiggyback carries shard items plus the digest vector.
	framePiggyback
	// frameAck carries an acknowledgement and no items.
	frameAck
	// frameHello is a connection's announcement.
	frameHello
)

// wireCounters are the counters every frame moves. Flushes come up to
// eight times as often as ticks, from the sync loop and from every read
// goroutine at once, so these are atomics — no pass waits for another to
// count — and a pass adds its wireTally once, however many frames it
// sent.
type wireCounters struct {
	frames, wireBytes, digestFrames, piggybacked atomic.Int64
	splitFrames, oversized, writeFlushes         atomic.Int64
	ackFrames, helloFrames                       atomic.Int64
	messages, elements, payload, metadata        atomic.Int64 // Sent
}

// wireTally is what one pass handed to the write pipelines.
type wireTally struct {
	frames, wireBytes, digestFrames, piggybacked, split, oversized int
	ackFrames, helloFrames                                         int
	sent                                                           metrics.Transmission
}

func (w *wireCounters) add(t *wireTally) {
	addN(&w.frames, t.frames)
	addN(&w.wireBytes, t.wireBytes)
	addN(&w.digestFrames, t.digestFrames)
	addN(&w.piggybacked, t.piggybacked)
	addN(&w.ackFrames, t.ackFrames)
	addN(&w.helloFrames, t.helloFrames)
	addN(&w.splitFrames, t.split)
	addN(&w.oversized, t.oversized)
	addN(&w.messages, t.sent.Messages)
	addN(&w.elements, t.sent.Elements)
	addN(&w.payload, t.sent.PayloadBytes)
	addN(&w.metadata, t.sent.MetadataBytes)
}

// addN skips the atomic for the counters a pass did not move.
func addN(c *atomic.Int64, n int) {
	if n != 0 {
		c.Add(int64(n))
	}
}

// snapshot copies the counters into their StoreStats fields.
func (w *wireCounters) snapshot(st *StoreStats) {
	st.Frames = int(w.frames.Load())
	st.WireBytes = int(w.wireBytes.Load())
	st.DigestFrames = int(w.digestFrames.Load())
	st.PiggybackedDigests = int(w.piggybacked.Load())
	st.AckFrames = int(w.ackFrames.Load())
	st.HelloFrames = int(w.helloFrames.Load())
	st.SplitFrames = int(w.splitFrames.Load())
	st.OversizedDropped = int(w.oversized.Load())
	st.WriteFlushes = int(w.writeFlushes.Load())
	st.Sent = metrics.Transmission{
		Messages:      int(w.messages.Load()),
		Elements:      int(w.elements.Load()),
		PayloadBytes:  int(w.payload.Load()),
		MetadataBytes: int(w.metadata.Load()),
	}
}

// transmit enqueues one frame onto the peer's write pipeline and tallies
// it at enqueue time (a dedicated writer goroutine performs the actual
// dial and write, so the wire stats count frames handed to the pipeline).
// A frame lost downstream — queue overflow, failed dial or write — shows
// up in Stats().Peers[to].Dropped; the neighbor catches up on a later
// tick when the inner engines resend (acked engines retransmit until
// acknowledged) or when digest anti-entropy observes the divergence. Pair
// plain delta-based without digests with this transport only where loss
// is acceptable.
func (s *Store) transmit(to string, data []byte, cost metrics.Transmission, kind frameKind, t *wireTally) {
	if err := s.net.transmit(to, data); err != nil {
		return // neighbor down or unknown; repaired on a later tick
	}
	s.tally(data, cost, kind, t)
}

// tally counts one frame of this store's on t.
func (s *Store) tally(data []byte, cost metrics.Transmission, kind frameKind, t *wireTally) {
	t.frames++
	t.wireBytes += 4 + 2 + len(s.cfg.ID) + len(data)
	switch kind {
	case frameDigest:
		t.digestFrames++
	case framePiggyback:
		t.piggybacked++
	case frameAck:
		t.ackFrames++
	case frameHello:
		t.helloFrames++
	}
	t.sent.Add(cost)
}

// deliver routes one inbound frame to its handler: sharded data frames
// through the single-pass unpacker straight to their shards, anything
// else (hello, standalone digest and tree frames) through DecodeMsg. A
// data frame is applied whole or not at all: UnpackFrame has decoded every
// item before the first shard lock is taken or the frame's acknowledgement
// applied, and what it refuses touches nothing. The frame bytes alias the
// connection's read buffer and are only valid during the call, so the view
// is reset before it returns to the pool. A non-nil error drops the
// connection (corrupt peer).
func (s *Store) deliver(from string, frame []byte) error {
	v := frameViews.Get().(*codec.FrameView)
	err := codec.UnpackFrame(frame, len(s.shards), v)
	switch {
	case err == nil:
		s.deliverSharded(from, v)
	case errors.Is(err, codec.ErrNotSharded):
		err = s.deliverControl(from, frame)
	}
	v.Reset() // drop references to the read buffer before pooling
	frameViews.Put(v)
	return err
}

// deliverSharded applies one unpacked data frame. Each touched shard's
// lock is taken exactly once per frame — the whole group of that shard's
// items (across every batch in the frame), decoded already, is applied
// under the single hold. What the frame causes to be sent (a drill's
// answer, this store's side of a digest mismatch) flushes inline on the
// read goroutine: transmit is a non-blocking enqueue onto the per-peer
// write pipelines, so no TCP write happens here and two nodes with mutually
// full send buffers cannot deadlock each other.
//
// The frame's link header is handled around the items: the
// acknowledgement it brings retires what this store sent, and its own
// sequence number is noted as received — and acknowledged — only once
// every item has been applied.
func (s *Store) deliverSharded(from string, v *codec.FrameView) {
	d := getDeliverState()
	defer d.release()
	lk := s.links[from]
	if v.Link.Ack.Inc != 0 {
		s.applyAck(from, lk, &v.Link.Ack, d)
	}
	watched := s.hasWatchers()
	forward := false // some shard was left with something never sent
	for _, g := range v.Groups() {
		sh := s.shards[g.Shard]
		var closeMsg *protocol.TreeMsg
		sh.mu.Lock()
		s.deliverLocks.Add(1)
		for i := range g.Items {
			iv := &g.Items[i]
			m, _ := iv.Msg()
			if iv.Key == nil {
				// The one bare message stores send inside a data frame is
				// the TreeMsg that closes a drill, after the states it goes
				// with; the engines have no use for any other. Should a
				// drained backlog have spliced two into one group, one that
				// asks for an answer is the one to keep.
				if tm, ok := m.(*protocol.TreeMsg); ok && (closeMsg == nil || len(tm.Nodes) > 0) {
					closeMsg = tm
				}
				continue
			}
			sh.od.DeliverObject(from, iv.Key, m, noReply)
		}
		forward = sh.touched() || forward
		sh.mu.Unlock()
		// A close that names ranges asks for this store's side of them; one
		// that names nothing says the drill with its sender is over.
		if closeMsg != nil && len(closeMsg.Nodes) > 0 {
			s.answerClose(from, closeMsg, g, d.b)
		} else if closeMsg != nil {
			s.repair.clearFrom(int(g.Shard), from)
		}
		if watched {
			s.notifyGroup(g)
		}
	}
	if v.Dropped > 0 {
		s.statsMu.Lock()
		s.stats.DroppedItems += v.Dropped
		s.statsMu.Unlock()
	}
	// A piggybacked digest vector is an advertisement like any other,
	// compared after the frame's own items have been merged (they are
	// part of the state the digests describe).
	s.handleDigests(from, v.Digests, d.b)
	// A frame with an item that was dropped for a shard this store does
	// not have is not acknowledged: the sender keeps every entry it
	// carried and sends them again.
	held := false
	if lk != nil && v.Link.Seq.Inc != 0 && v.Dropped == 0 {
		held = lk.receive(v.Link.Seq, s.sinceStart())
	}
	if forward {
		s.requestFlush()
	}
	s.flush(d.b, nil)
	// The acknowledgement rides the first data frame toward from that
	// leaves within its hold — what this frame made this store answer
	// (above), a forward, a write — and acknowledges every frame that
	// arrived meanwhile. A hold that starts here has the sync loop arm its
	// timer, which sends the acknowledgement alone once the hold is over; a
	// store that holds nothing sends it now.
	if lk != nil && lk.owed.Load() {
		if s.ackHold() == 0 {
			s.sendAck(from, lk)
		} else if held {
			s.poke()
		}
	}
}

// applyAck hands the δ-groups of the frames ack settles to their engines,
// each as the AckMsg the engine would have been sent for it, one lock
// hold per shard. lk is from's link, nil for a non-neighbor.
func (s *Store) applyAck(from string, lk *link, ack *protocol.FrameAck, d *deliverState) {
	ok := false
	if lk != nil {
		d.acked, ok = lk.acknowledge(ack, d.acked[:0])
	}
	if !ok {
		s.statsMu.Lock()
		s.stats.IgnoredAcks++
		s.statsMu.Unlock()
		return
	}
	items := d.acked
	// One frame's δ-groups are in shard order; several frames' are not.
	byShard := func(a, b ackItem) int { return cmp.Compare(a.shard, b.shard) }
	if !slices.IsSortedFunc(items, byShard) {
		slices.SortStableFunc(items, byShard)
	}
	for i := 0; i < len(items); {
		shard := items[i].shard
		sh := s.shards[shard]
		sh.mu.Lock()
		s.deliverLocks.Add(1)
		for ; i < len(items) && items[i].shard == shard; i++ {
			d.key = append(d.key[:0], items[i].key...)
			d.ack.Seqs = items[i].seqs
			sh.od.DeliverObject(from, d.key, &d.ack, noReply)
		}
		sh.mu.Unlock()
	}
	clear(items)
}

// notifyGroup offers the keys one shard group's items touched to the
// registered watchers, conservatively — a delivery the engine found
// redundant still counts as a (coalesced) change.
func (s *Store) notifyGroup(g codec.ItemGroup) {
	for i := range g.Items {
		if iv := &g.Items[i]; iv.Key != nil {
			s.notifyWatchers(string(iv.Key))
		}
	}
}

// deliverControl handles the non-sharded frames a store speaks: the
// HelloMsg a connection opens with, the standalone DigestMsg
// (advertisement heartbeat) and the TreeMsg hash pushes of a drill.
// Anything else well-formed is ignored and the connection kept;
// undecodable bytes, and a hello this store refuses, drop the connection.
func (s *Store) deliverControl(from string, frame []byte) error {
	msg, _, err := codec.DecodeMsg(frame)
	if err != nil {
		return err
	}
	d := getDeliverState()
	defer d.release()
	echo := false
	switch m := msg.(type) {
	case *protocol.HelloMsg:
		return s.handleHello(from, m)
	case *protocol.DigestMsg:
		s.handleDigests(from, m.Digests, d.b)
		echo = m.Echo
	case *protocol.TreeMsg:
		s.handleTree(from, m, d.b)
	default:
		return nil // stores speak only sharded, hello, digest and tree frames
	}
	s.flush(d.b, nil)
	if echo {
		s.echoDigests(from) // behind what the drills shipped
	}
	return nil
}

// helloFrame encodes the announcement a connection of this store's opens
// with — the wire version, the shard count, the peers its pipelines are
// connected to — and counts it: the pipeline writes it to the socket
// itself.
func (s *Store) helloFrame(reaches []string) []byte {
	m := protocol.NewHelloMsg(protocol.WireVersion, uint32(len(s.shards)), reaches)
	data, err := codec.EncodeMsg(m)
	if err != nil {
		panic(err)
	}
	var t wireTally
	s.tally(data, m.Cost(), frameHello, &t)
	s.wire.add(&t)
	return data
}

// handleHello takes a peer's announcement. One that names another shard
// count or wire version is refused, which closes the connection before
// any of its items is routed; otherwise what it reaches replaces what
// from was known to reach.
func (s *Store) handleHello(from string, m *protocol.HelloMsg) error {
	if m.Version != protocol.WireVersion || int(m.Shards) != len(s.shards) {
		s.statsMu.Lock()
		s.stats.HelloRefused++
		s.statsMu.Unlock()
		return fmt.Errorf("transport: %s refuses %s: it speaks wire version %d over %d shards, not %d over %d",
			s.cfg.ID, from, m.Version, m.Shards, protocol.WireVersion, len(s.shards))
	}
	s.setReach(from, m.Reaches)
	return nil
}

// setReach records what neighbor w says it reaches: ids, or nothing once
// the last inbound connection from w has ended. Every neighbor v that
// thereby leaves the set is one the engines may have withheld δ-groups from
// on w's word, and w may not have delivered them: everything w sent here
// has been applied (TCP order), so from now on matching digests with v
// prove that v holds it too. Every shard is marked for that comparison
// (tick, handleDigests); the drill repairs what differs. A store whose
// engine withholds nothing has nothing to cover for.
func (s *Store) setReach(w string, ids []string) {
	if s.reach == nil {
		return
	}
	marked := 0
	for _, v := range s.reach.Set(w, ids) {
		marked += s.links[v].catchUp.all(len(s.shards))
	}
	if marked > 0 {
		s.statsMu.Lock()
		s.stats.CatchUpShards += marked
		s.statsMu.Unlock()
	}
}

// echoDigests answers an advertisement that asked for one back, unless
// this store is catching up with from itself and so advertises to it on
// every tick anyway.
func (s *Store) echoDigests(from string) {
	if lk := s.links[from]; lk == nil || lk.catchUp.left.Load() > 0 {
		return
	}
	vec := s.shardDigests()
	s.transmitMsg(from, protocol.NewDigestMsg(vec), frameDigest)
	s.putDigestVec(vec)
}

// syncLoop owns the two clocks: the ticker, and the flush timer that
// holds a requested flush back until a window has passed since the last
// pass and an owed acknowledgement until its hold is over, whichever ends
// first.
func (s *Store) syncLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.SyncEvery)
	defer ticker.Stop()
	window := int64(s.cfg.SyncEvery / flushesPerTick)
	flushTimer := time.NewTimer(time.Hour)
	defer flushTimer.Stop()
	for {
		select {
		case <-s.stopping:
			return
		case <-ticker.C:
			s.tick()
		case <-s.wake:
		case <-flushTimer.C:
		}
		now := s.sinceStart()
		next := int64(math.MaxInt64)
		// Unless a tick has shipped what the request was for.
		if s.flushWanted.Load() {
			if at := s.lastSend.Load() + window; at > now {
				next = at
			} else {
				s.writeFlush()
			}
		}
		if next = min(next, s.flushAcks(now)); next == math.MaxInt64 {
			continue
		}
		if !flushTimer.Stop() {
			select {
			case <-flushTimer.C:
			default:
			}
		}
		flushTimer.Reset(time.Duration(next - now))
	}
}

// Close ships what is still unsent and every acknowledgement still owed,
// stops the loops, closes every watcher (their Events channels close) and
// every connection. It is idempotent.
func (s *Store) Close() error {
	s.stopOnce.Do(func() {
		close(s.stopping)
		// The last pass: an Update followed by Close reaches the peers
		// without a tick in between, and a closing store holds no
		// acknowledgement (ackHold) — a peer that never got one would go
		// on sending again what this store has applied. net.close drains
		// them.
		s.writeFlush()
		s.flushAcks(s.sinceStart())
	})
	s.closeWatchers()
	err := s.net.close()
	s.wg.Wait()
	return err
}
