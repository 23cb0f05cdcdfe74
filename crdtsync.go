// Package crdtsync is the public surface of the sharded CRDT store: a
// replicated multi-object keyspace synchronized with the δ-CRDT
// algorithms of Enes et al., "Efficient Synchronization of State-based
// CRDTs" (ICDE 2019), over the batched, digest-repaired, backpressured
// TCP transport grown underneath it.
//
// Open one replica per process with Open, point replicas at each other
// with WithPeers, and mutate the keyspace through typed handles:
//
//	st, err := crdtsync.Open(
//		crdtsync.WithID("node-a"),
//		crdtsync.WithListenAddr("127.0.0.1:7001"),
//		crdtsync.WithPeers(map[string]string{"node-b": "127.0.0.1:7002"}),
//	)
//	...
//	hits := st.Counter("hits")
//	hits.Inc(1)
//	st.Set("tags").Add("urgent")
//	st.Map("profile/alice").Put("city", "Porto")
//
// Every replica converges to the same state without coordination;
// conflicting writes merge by the objects' join semantics (counters sum
// per-replica entries, sets union, registers keep the last write).
//
// Reads come in three strengths: Get clones one object's state (safe to
// keep and mutate), Query and Scan visit live objects under their shard
// locks without cloning (fast, but the states must not be retained), and
// Watch streams coalesced change notifications with bounded buffering —
// a slow consumer is marked lagged rather than allowed to stall
// synchronization.
//
// The typed handles partition the keyspace by prefix: counters live
// under "c/", sets under "s/", map fields under "m/<name>/". The prefix
// is the schema — every replica derives an object's datatype from its
// key alone, so no type negotiation happens on the wire — and it is the
// natural argument to Scan and Watch ("c/" watches every counter).
package crdtsync

import (
	"fmt"
	"net"
	"strings"
	"time"

	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// Key namespaces of the typed handles. The prefix of a key decides its
// datatype on every replica, so the three families can share one store
// without wire-level type negotiation; pass them to Scan or Watch to
// range over one family.
const (
	// CounterPrefix is the namespace of Counter objects.
	CounterPrefix = "c/"
	// SetPrefix is the namespace of Set objects.
	SetPrefix = "s/"
	// MapPrefix is the namespace of Map objects; each field of a map
	// named m is its own object at "m/<m>/<field>", so concurrent writes
	// to different fields of one map share no δ-buffer.
	MapPrefix = "m/"
)

// State is one object's CRDT state: a join-semilattice value. States
// returned by Get are private snapshots; states passed to Query, Scan
// and View callbacks are the store's live values and must not be
// mutated or retained.
type State = lattice.State

// Stats is a snapshot of one store's wire, anti-entropy, write-pipeline
// and watch accounting.
type Stats = transport.StoreStats

// PeerStats is the per-peer slice of Stats: one outbound write
// pipeline's enqueued/dropped frame and byte counters plus its
// connection state, and — under EngineAcked — how far behind the peer
// is (frames in flight, last sequence number sent, acknowledged and
// received) and which of this store's other peers it last announced it
// reaches.
type PeerStats = transport.PeerStats

// Memory aggregates a store's memory footprint: CRDT state bytes,
// δ-buffer bytes, and synchronization metadata bytes.
type Memory = metrics.Memory

// WatchEvent is one change notification from a Watcher: Key names the
// (possibly) changed object; Lagged marks the first event after the
// watcher's bounded buffer overflowed and notifications were dropped.
type WatchEvent = transport.WatchEvent

// Watcher streams coalesced change notifications for one key prefix;
// see Store.Watch.
type Watcher = transport.Watcher

// DialFunc establishes the outbound connection to one peer: id is the
// peer's replica id, addr its listen address. Test and benchmark
// harnesses override it (WithDial) to inject faults.
type DialFunc = transport.DialFunc

// Engine selects the per-object synchronization algorithm.
type Engine int

const (
	// EngineAcked is delta-based BP+RR with acknowledgements: δ-groups
	// are retransmitted until acked, so lost frames are repaired by the
	// engine itself. The default, safe on lossy links.
	EngineAcked Engine = iota
	// EngineDelta is plain delta-based BP+RR, the paper's optimal
	// engine; it assumes frames are never lost. Pair it with digest
	// anti-entropy (WithDigestEvery) anywhere loss is possible.
	EngineDelta
)

func (e Engine) factory() (protocol.Factory, error) {
	switch e {
	case EngineAcked:
		return protocol.NewDeltaAcked(true, true), nil
	case EngineDelta:
		return protocol.NewDeltaBPRR(), nil
	default:
		return nil, fmt.Errorf("crdtsync: unknown engine %d", e)
	}
}

// ParseEngine maps the command-line names of the engines ("acked",
// "delta") to Engine values.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", "acked":
		return EngineAcked, nil
	case "delta":
		return EngineDelta, nil
	default:
		return 0, fmt.Errorf("crdtsync: unknown engine %q (want acked or delta)", name)
	}
}

// Option configures Open.
type Option func(*options)

type options struct {
	cfg    transport.StoreConfig
	engine Engine
}

// WithID sets this replica's identifier (default "node"). Ids must be
// unique within a cluster: peers address frames by them.
func WithID(id string) Option { return func(o *options) { o.cfg.ID = id } }

// WithListenAddr sets the TCP address to accept peer frames on (default
// "127.0.0.1:0"; Addr reports the bound address).
func WithListenAddr(addr string) Option { return func(o *options) { o.cfg.ListenAddr = addr } }

// WithListener uses an already bound listener instead of binding
// ListenAddr — the way to know every replica's address before starting
// any of them.
func WithListener(ln net.Listener) Option { return func(o *options) { o.cfg.Listener = ln } }

// WithPeers sets the neighbor replicas this store synchronizes with:
// replica id to listen address. Connections are dialed lazily and
// re-dialed with backoff, so peers may come up in any order.
func WithPeers(peers map[string]string) Option { return func(o *options) { o.cfg.Peers = peers } }

// WithNodes has no effect: no engine a store runs reads the cluster
// membership, on a partial mesh or a ring as on a full mesh.
//
// Deprecated: it stays declared only because the frozen bench/ module
// calls it.
func WithNodes([]string) Option { return func(*options) {} }

// WithShards sets the shard count, rounded up to a power of two
// (default 16). Every replica in a cluster must use the same value:
// digests and repair are per shard, and a connection whose hello names
// another count is refused (Stats().HelloRefused).
func WithShards(n int) Option { return func(o *options) { o.cfg.Shards = n } }

// WithEngine selects the per-object synchronization algorithm (default
// EngineAcked). Every connection opens with a hello naming the peers its
// sender's pipelines are connected to, and the engines differ in what
// they make of a neighbor's: EngineAcked does not forward a δ-group to a
// neighbor that the one it came from has announced it sends to — that
// neighbor re-sends until acknowledged, so on a full mesh an update
// crosses each link once — and when an announcement stops holding (the
// neighbor's connection ends, or it names fewer peers) the store compares
// digests with whoever was dropped, whatever WithDigestEvery says, until
// they match. EngineDelta never sends anything twice, so a forward is its
// only redundancy under loss: it takes no notice of announcements,
// forwards as Algorithm 1 does and runs no such comparison. Both refuse a
// connection whose hello names another shard count.
func WithEngine(e Engine) Option { return func(o *options) { o.engine = e } }

// WithSyncEvery sets the synchronization period (default 1s): the
// interval of the sync tick. A write does not wait for it — an Update
// triggers a flush of what has never been sent — so the period is the
// maximum delay of a write, the heartbeat, the cadence WithDigestEvery
// counts in, the clock EngineAcked's retransmissions back off in, and the
// batching budget: flushes and ticks run at eight per period on average,
// one per eighth of it. A store saves up to four of them while idle, so a
// write on a quiet store leaves at once, and a busy one gets a pass an
// eighth of the period after the last — at most eleven write-triggered
// flushes in any one period. An acknowledgement owed to a peer waits up
// to half the period for data going its way to ride. A period nobody
// waits out (time.Hour) plus explicit SyncNow calls ticks the store by
// hand: nothing leaves between two calls but acknowledgements.
func WithSyncEvery(d time.Duration) Option { return func(o *options) { o.cfg.SyncEvery = d } }

// WithDigestEvery enables digest anti-entropy: every n-th sync tick the
// store advertises its per-shard digest vector (piggybacked on data
// frames when possible) and peers pull only the shards whose digests
// differ. This repairs divergence the engines cannot see — lost frames
// under EngineDelta, healed partitions — at a near-constant idle cost.
// 0 (the default) disables it.
func WithDigestEvery(n int) Option { return func(o *options) { o.cfg.DigestEvery = n } }

// WithDial replaces the default TCP dialer for outbound connections;
// fault-injection harnesses wrap it to drop or sever frames.
func WithDial(dial DialFunc) Option { return func(o *options) { o.cfg.Dial = dial } }

// WithSnapshotDir enables crash-restart durability: each shard's objects
// are periodically serialized to an atomic-rename, checksummed file in
// dir (created if needed), and Open restores from those files before
// joining the mesh. A restored replica is as stale as its last snapshot;
// ordinary anti-entropy repairs the gap, so recovery cost scales with
// staleness, not keyspace size. Corrupt or truncated files are skipped
// whole (counted in Stats), never partially applied.
func WithSnapshotDir(dir string) Option { return func(o *options) { o.cfg.SnapshotDir = dir } }

// WithSnapshotEvery sets the snapshot period (default 10s; only
// meaningful with WithSnapshotDir). Shards whose contents have not
// changed since their last snapshot are skipped without I/O.
func WithSnapshotEvery(d time.Duration) Option { return func(o *options) { o.cfg.SnapshotEvery = d } }

// objType is the prefix schema shared by every replica: the datatype of
// an object is a pure function of its key, so remotely learned keys
// deserialize into the right lattice without negotiation.
func objType(key string) workload.Datatype {
	switch {
	case strings.HasPrefix(key, CounterPrefix):
		return workload.GCounterType{}
	case strings.HasPrefix(key, SetPrefix):
		return workload.GSetType{}
	default:
		return workload.LWWMapType{}
	}
}

// Store is one replica of the replicated keyspace. All methods are safe
// for concurrent use: writes, deliveries and sync passes take turns on one
// lock, and reads take only the read lock of the shard they read.
type Store struct {
	s *transport.Store
}

// Open starts one replica and returns its store. The returned store is
// live immediately: it accepts peer frames, runs the sync loop, and
// serves reads and writes. Close it to stop.
func Open(opts ...Option) (*Store, error) {
	o := buildOptions(opts)
	factory, err := o.engine.factory()
	if err != nil {
		return nil, err
	}
	o.cfg.Factory = factory
	st, err := transport.StartStore(o.cfg)
	if err != nil {
		return nil, err
	}
	return &Store{s: st}, nil
}

// buildOptions applies opts over the defaults.
func buildOptions(opts []Option) *options {
	o := &options{cfg: transport.StoreConfig{
		ID:         "node",
		ListenAddr: "127.0.0.1:0",
		ObjType:    objType,
	}}
	for _, opt := range opts {
		opt(o)
	}
	o.cfg.ObjType = objType // the schema is not configurable
	return o
}

// Cluster starts n fully meshed replicas on loopback, every listener
// bound before any store starts so all peer addresses are known up
// front. Options apply to every replica; WithID sets the replica-id
// prefix ("store" → store-00, store-01, ...). Benchmarks, examples and
// tests share this bootstrap. On error, replicas already started are
// closed.
func Cluster(n int, opts ...Option) ([]*Store, error) {
	o := buildOptions(opts)
	factory, err := o.engine.factory()
	if err != nil {
		return nil, err
	}
	o.cfg.Factory = factory
	o.cfg.Listener = nil
	o.cfg.ListenAddr = ""
	raw, err := transport.LoopbackCluster(n, o.cfg)
	if err != nil {
		return nil, err
	}
	stores := make([]*Store, len(raw))
	for i, st := range raw {
		stores[i] = &Store{s: st}
	}
	return stores, nil
}

// WaitConverged polls until every store holds wantKeys objects and all
// content digests agree, or the timeout elapses. progress, when non-nil,
// receives the per-store key counts on every poll. On timeout the error
// names each store's key count, digest and write-pipeline health.
func WaitConverged(stores []*Store, wantKeys int, timeout time.Duration, progress func(counts []int)) error {
	raw := make([]*transport.Store, len(stores))
	for i, st := range stores {
		raw[i] = st.s
	}
	return transport.WaitConverged(raw, wantKeys, timeout, progress)
}

// ID returns the replica identifier.
func (s *Store) ID() string { return s.s.ID() }

// Addr returns the bound listen address (useful with ":0" listen
// addresses).
func (s *Store) Addr() string { return s.s.Addr() }

// NumShards returns the effective (power-of-two) shard count.
func (s *Store) NumShards() int { return s.s.NumShards() }

// NumKeys returns the number of distinct objects across all shards.
func (s *Store) NumKeys() int { return s.s.NumKeys() }

// Keys returns every object key in sorted order — deterministic across
// shard counts and hash layouts.
func (s *Store) Keys() []string { return s.s.Keys() }

// Get returns a private snapshot of one object's state, or nil if the
// key is unknown. The snapshot is cloned under the shard lock: the
// caller may keep it and mutate it freely without affecting the store.
// For bulk reads, Query and Scan avoid the clone.
func (s *Store) Get(key string) State { return s.s.Get(key) }

// Query visits every object of one shard under that shard's lock, in
// sorted key order, without cloning. fn must not mutate or retain the
// states and must not call back into the store; returning false stops
// the visit. Shard indices range over [0, NumShards()).
func (s *Store) Query(shard int, fn func(key string, st State) bool) { s.s.Query(shard, fn) }

// View runs fn on one object's live state under its shard lock and
// reports whether the key exists — the single-key, zero-clone read the
// typed handles are built on. The same contract as Query applies.
func (s *Store) View(key string, fn func(st State)) bool { return s.s.View(key, fn) }

// Scan visits every object whose key starts with prefix, across all
// shards, in globally sorted key order, holding each shard's lock only
// briefly. fn observes live states under the same contract as Query;
// returning false stops the scan. Scan is not a snapshot: concurrent
// updates may be observed.
func (s *Store) Scan(prefix string, fn func(key string, st State) bool) { s.s.Scan(prefix, fn) }

// Watch streams change notifications for every key starting with prefix
// (CounterPrefix, SetPrefix, MapPrefix + name + "/", or "" for the whole
// keyspace). Notifications are coalesced per key and buffered
// boundedly: a consumer that stops reading its Events channel never
// stalls synchronization — overflowing notifications are dropped,
// counted in Stats().WatchDropped, and surfaced as a Lagged mark on the
// next delivered event, after which the consumer should Scan the prefix
// to resynchronize. Close the watcher to release it.
func (s *Store) Watch(prefix string) *Watcher { return s.s.Watch(prefix, 0) }

// WatchBuffered is Watch with an explicit bound on the number of
// distinct keys held pending between reads (buf <= 0 uses the default
// of 256).
func (s *Store) WatchBuffered(prefix string, buf int) *Watcher { return s.s.Watch(prefix, buf) }

// SyncNow runs one synchronization tick immediately, in addition to the
// periodic ones: it ships what is unsent, re-sends what is due, and
// counts toward WithDigestEvery. From the first call on the store holds no
// acknowledgement back — an owner that ticks it cannot say when its peers
// tick next — so one owed leaves with this tick, and later ones at once.
func (s *Store) SyncNow() { s.s.SyncNow() }

// SnapshotNow runs one snapshot pass immediately, in addition to the
// periodic ones: every shard whose contents changed since its last
// snapshot is written out. Call it before a planned shutdown to make
// the restart lossless (Close itself does not snapshot). Errors if the
// store was opened without WithSnapshotDir.
func (s *Store) SnapshotNow() error { return s.s.SnapshotNow() }

// Ticks returns how many synchronization ticks — periodic ones and
// SyncNow calls, not write-triggered flushes — this store has run.
func (s *Store) Ticks() uint64 { return s.s.Ticks() }

// Stats returns a snapshot of the store's wire, anti-entropy,
// write-pipeline and watch accounting.
func (s *Store) Stats() Stats { return s.s.Stats() }

// Digest returns a 64-bit content digest: two converged replicas (same
// shard count, same keyspace, same states) produce equal digests.
func (s *Store) Digest() uint64 { return s.s.Digest() }

// Memory aggregates the store's memory footprint across shards.
func (s *Store) Memory() Memory { return s.s.Memory() }

// Close stops the sync loop, closes every watcher and connection, and
// waits for in-flight work to finish. It is idempotent.
func (s *Store) Close() error { return s.s.Close() }
