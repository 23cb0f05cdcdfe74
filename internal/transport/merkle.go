package transport

import (
	"encoding/binary"
	"sync"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/protocol"
)

// This file implements the repair side of digest anti-entropy: the
// per-shard Merkle hash tree that turns a root-digest mismatch into a
// log-depth drill-down (protocol.TreeMsg), and the in-flight repair
// table that keeps a store from re-requesting a shard on every
// heartbeat while its repair is still on the wire.

const (
	// defaultRepairTimeout bounds how long one shard's repair may stay
	// in flight before the next digest mismatch may retrigger it. It is
	// also the retry cadence when repair messages are lost, so it stays
	// close to the scale of a round trip plus a shard ship; re-requesting
	// a repair early only costs a duplicate idempotent merge.
	defaultRepairTimeout = time.Second
	// defaultTreeMinKeys is the local key count below which a diverged
	// shard is pulled whole rather than drilled: under ~a few hundred
	// keys the full ship is smaller than the hash exchange.
	defaultTreeMinKeys = 256
	// treeMaxQuery caps the drill fan-out: when the differing nodes'
	// children would exceed this many indices, most of the shard differs
	// and the drill-down falls back to a full-shard pull — which is then
	// proportional to the divergence by definition.
	treeMaxQuery = 1024
	// maxDrillFails is how many consecutive drill-downs on one shard may
	// time out before repair falls back to the flat full pull. The drill
	// is a multi-round exchange, so under heavy frame loss its completion
	// probability decays with every round; the flat pull is two messages
	// and wins on lossy links even though it ships the whole shard.
	maxDrillFails = 2
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvFold continues an FNV-1a fold over b (allocation-free; hash/fnv's
// hasher escapes through the interface — same reason as fnv32a).
func fnvFold(h uint64, b []byte) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return h
}

// fnvFoldString is fnvFold over a key without the []byte conversion.
func fnvFoldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// treeLeafIdx buckets a key into its shard's hash-tree leaf by the top
// bits of the same key hash shard routing uses the bottom bits of, so
// the two partitions stay independent.
func treeLeafIdx(key string) uint32 {
	return fnv32a(key) >> (32 - protocol.TreeFanoutBits*protocol.TreeDepth)
}

// treeBitmap marks tree node/leaf indices; sized for the leaf level, the
// widest, so one stack allocation serves every level.
type treeBitmap [protocol.TreeLeaves / 64]uint64

func (t *treeBitmap) set(i uint32)      { t[i/64] |= 1 << (i % 64) }
func (t *treeBitmap) has(i uint32) bool { return t[i/64]&(1<<(i%64)) != 0 }

// leafKeyHash is one key's contribution to its leaf: an FNV-1a fold
// over (key bytes, canonical encoding). Leaves combine contributions by
// XOR (an empty leaf is 0) — order-independent, so replicas holding
// equal contents produce equal leaves regardless of key order.
// Leaf hashes are only ever compared between replicas running the same
// code, so the combining rule is free to change between versions.
func leafKeyHash(k string, enc []byte) uint64 {
	return fnvFold(fnvFoldString(fnvOffset64, k), enc)
}

// ensureLeavesLocked (re)computes the shard's leaf-hash vector if a
// mutation invalidated it. Caller holds sh.mu.
func (sh *shard) ensureLeavesLocked() {
	if sh.leafOK {
		return
	}
	if sh.leaf == nil {
		sh.leaf = make([]uint64, protocol.TreeLeaves)
	} else {
		clear(sh.leaf)
	}
	scratch := getEncodeBuf()
	for _, k := range sh.engine.Keys() {
		scratch = codec.AppendState(scratch[:0], sh.engine.ObjectState(k))
		sh.leaf[treeLeafIdx(k)] ^= leafKeyHash(k, scratch)
	}
	putEncodeBuf(scratch)
	sh.leafOK = true
}

// treeNodeHash folds a node's leaf range into one interior hash:
// FNV-1a over the big-endian words of its leaves. At the leaf level the
// range has one element and the hash is the leaf itself.
func treeNodeHash(leaves []uint64) uint64 {
	if len(leaves) == 1 {
		return leaves[0]
	}
	h := uint64(fnvOffset64)
	var w [8]byte
	for _, l := range leaves {
		binary.BigEndian.PutUint64(w[:], l)
		h = fnvFold(h, w[:])
	}
	return h
}

// treeNodeHashes appends the shard's hashes for the given node indices
// at level (indices already validated against the level's node count).
func (s *Store) treeNodeHashes(sh *shard, level int, nodes []uint32, out []uint64) []uint64 {
	span := protocol.TreeLeafSpan(level)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.ensureLeavesLocked()
	for _, idx := range nodes {
		lo := idx * span
		out = append(out, treeNodeHash(sh.leaf[lo:lo+span]))
	}
	return out
}

// repairEntry tracks one shard's in-flight repair: which peer it was
// requested from, when the request expires if no repair data lands,
// whether the data request (flat or leaf-level Want) has gone out yet,
// and how many consecutive attempts have timed out.
type repairEntry struct {
	active   bool
	wantSent bool
	fails    uint8
	peer     string
	expires  time.Time
}

// repairTable is the Want-storm gate: at most one outstanding repair
// request (flat Want or tree drill-down) per shard, cleared when repair
// data arrives from the peer it was requested from, when the shard's
// digests re-match, or on timeout.
type repairTable struct {
	mu      sync.Mutex
	timeout time.Duration
	entries []repairEntry
}

// tryStart claims the shard's repair slot, returning ok=false while an
// unexpired repair is already in flight (the deduped-Want case). When it
// claims a slot whose previous repair timed out, the consecutive-failure
// count carries over (and is returned), so the caller can stop drilling
// and fall back to the flat pull on a link that keeps eating rounds.
func (r *repairTable) tryStart(shard int, peer string, now time.Time) (fails int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := &r.entries[shard]
	if e.active && now.Before(e.expires) {
		return 0, false
	}
	f := uint8(0)
	if e.active { // the previous attempt expired unrepaired
		if f = e.fails; f < maxDrillFails {
			f++
		}
	}
	*e = repairEntry{active: true, fails: f, peer: peer, expires: now.Add(r.timeout)}
	return int(f), true
}

// refresh reports whether the shard's in-flight repair is with peer and,
// when it is, extends its deadline — a drill-down answer is progress.
func (r *repairTable) refresh(shard int, peer string, now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := &r.entries[shard]
	if !e.active || e.peer != peer || !now.Before(e.expires) {
		return false
	}
	e.expires = now.Add(r.timeout)
	return true
}

// markWant records that the shard's repair has asked peer for data (a
// flat Want or a leaf-level tree Want), arming clearFrom.
func (r *repairTable) markWant(shard int, peer string) {
	r.mu.Lock()
	if e := &r.entries[shard]; e.active && e.peer == peer {
		e.wantSent = true
	}
	r.mu.Unlock()
}

// clearFrom releases the shard's repair slot if it is held against peer
// and has asked it for data — called on every sharded data delivery, so
// the wantSent gate is what keeps ordinary delta traffic from the same
// peer from aborting a drill-down mid-flight.
func (r *repairTable) clearFrom(shard int, peer string) {
	r.mu.Lock()
	if e := &r.entries[shard]; e.active && e.wantSent && e.peer == peer {
		*e = repairEntry{}
	}
	r.mu.Unlock()
}

// clear releases the shard's repair slot unconditionally — called when
// the shard's digests match again, however that happened.
func (r *repairTable) clear(shard int) {
	r.mu.Lock()
	r.entries[shard] = repairEntry{}
	r.mu.Unlock()
}

// handleDigests compares a peer's digest advertisement against the
// local shards and starts a repair for whichever differ — unless one is
// already in flight for that shard (the Want-storm dedup). Large shards
// repair by Merkle drill-down; small ones are pulled whole, as before.
func (s *Store) handleDigests(from string, digests []uint64) {
	if len(digests) == 0 {
		return
	}
	if len(digests) != len(s.shards) {
		// Shard-count mismatch: the vectors are not comparable and
		// anti-entropy cannot repair anything — count it so a
		// misconfigured cluster says why it never converges.
		s.statsMu.Lock()
		s.stats.DigestShardMismatch++
		s.statsMu.Unlock()
		return
	}
	now := time.Now()
	var flat []uint32
	deduped := 0
	for i, sh := range s.shards {
		if s.shardDigest(sh) == digests[i] {
			s.repair.clear(i)
			continue
		}
		fails, ok := s.repair.tryStart(i, from, now)
		if !ok {
			deduped++
			continue
		}
		if fails < maxDrillFails && s.treeEligible(sh) {
			s.sendTreeQuery(from, uint32(i), 1, treeLevelOneQuery)
		} else {
			s.repair.markWant(i, from)
			flat = append(flat, uint32(i))
		}
	}
	if deduped > 0 {
		s.statsMu.Lock()
		s.stats.DedupedWants += deduped
		s.statsMu.Unlock()
	}
	if len(flat) > 0 {
		s.statsMu.Lock()
		s.stats.WantShards += len(flat)
		s.statsMu.Unlock()
		m := protocol.NewDigestMsg(nil, flat)
		s.transmitMsg(from, m, frameDigest)
	}
}

// treeLevelOneQuery is the first drill-down step, the same for every
// repair: all of level 1.
var treeLevelOneQuery = func() []uint32 {
	q := make([]uint32, protocol.TreeFanout)
	for i := range q {
		q[i] = uint32(i)
	}
	return q
}()

// treeEligible reports whether a diverged shard should repair by
// drill-down rather than a full pull: enough local keys that the hash
// exchange is cheaper than shipping everything.
func (s *Store) treeEligible(sh *shard) bool {
	sh.mu.Lock()
	n := sh.engine.NumKeys()
	sh.mu.Unlock()
	return n >= s.cfg.TreeRepairMinKeys
}

// sendTreeQuery ships one drill-down query round and counts it.
func (s *Store) sendTreeQuery(to string, shard uint32, level int, query []uint32) {
	s.statsMu.Lock()
	s.stats.TreeRounds++
	s.statsMu.Unlock()
	m := protocol.NewTreeMsg(shard, uint8(level), query, nil, nil, nil)
	s.transmitMsg(to, m, frameDigest)
}

// transmitMsg encodes one control message and hands it to the peer's
// write pipeline. Encoding a message the store itself built can only
// fail on a programming error.
func (s *Store) transmitMsg(to string, m protocol.Msg, kind frameKind) {
	data, err := codec.EncodeMsg(m)
	if err != nil {
		panic(err)
	}
	var t wireTally
	s.transmit(to, data, m.Cost(), kind, &t)
	s.wire.add(&t)
}

// handleTree dispatches one drill-down step by which role the message
// plays: a Query is answered with hashes, an answer's Nodes/Hashes are
// compared to continue the drill, a Want is served with range data.
// The decoder bounds Shard only against uint32 (shard counts are not
// wire-negotiated), so the shard-map skew check happens here.
func (s *Store) handleTree(from string, tm *protocol.TreeMsg, b *outBatch) {
	if int(tm.Shard) >= len(s.shards) {
		return // shard-map skew; the digests were never comparable
	}
	level := int(tm.Level)
	if level < 1 || level > protocol.TreeDepth {
		return // decoder enforces this; kept for directly built messages
	}
	if len(tm.Query) > 0 {
		s.serveTreeQuery(from, tm.Shard, level, tm.Query)
	}
	if len(tm.Nodes) > 0 {
		s.continueDrill(from, tm.Shard, level, tm.Nodes, tm.Hashes)
	}
	if len(tm.Want) > 0 {
		s.serveTreeWant(from, tm.Shard, level, tm.Want, b)
	}
}

// serveTreeQuery answers a drill-down query with this store's hashes of
// the queried nodes. Duplicate or out-of-range indices are dropped: the
// reply is sized by the tree geometry, never by the request length.
func (s *Store) serveTreeQuery(to string, shardIdx uint32, level int, query []uint32) {
	maxNode := uint32(protocol.TreeNodesAt(level))
	var seen treeBitmap
	nodes := make([]uint32, 0, len(query))
	for _, q := range query {
		if q >= maxNode || seen.has(q) {
			continue
		}
		seen.set(q)
		nodes = append(nodes, q)
	}
	if len(nodes) == 0 {
		return
	}
	hashes := s.treeNodeHashes(s.shards[shardIdx], level, nodes, make([]uint64, 0, len(nodes)))
	m := protocol.NewTreeMsg(shardIdx, uint8(level), nil, nodes, hashes, nil)
	s.transmitMsg(to, m, frameDigest)
}

// continueDrill compares an answer's hashes against this store's own
// and takes the next step: query the differing nodes' children, send
// the leaf-level Want, or — when the divergence turns out wider than
// drilling pays for — fall back to the flat full-shard pull.
func (s *Store) continueDrill(from string, shardIdx uint32, level int, nodes []uint32, hashes []uint64) {
	if len(hashes) != len(nodes) {
		return // decoder enforces this; kept for directly built messages
	}
	if !s.repair.refresh(int(shardIdx), from, time.Now()) {
		return // stale or foreign answer: not the repair in flight here
	}
	// Validate and dedup the answer's indices BEFORE hashing, honoring
	// treeNodeHashes' "indices already validated" contract (the same
	// ordering serveTreeQuery uses): an out-of-range index would slice
	// past the leaf vector and panic the store on a hand-built message —
	// the wire decoder bounds indices, but this path must not rely on it.
	maxNode := uint32(protocol.TreeNodesAt(level))
	var seen treeBitmap
	valid := make([]uint32, 0, len(nodes))
	theirs := make([]uint64, 0, len(nodes))
	for i, idx := range nodes {
		if idx >= maxNode || seen.has(idx) {
			continue
		}
		seen.set(idx)
		valid = append(valid, idx)
		theirs = append(theirs, hashes[i])
	}
	if len(valid) == 0 {
		return // nothing comparable in the answer
	}
	mine := s.treeNodeHashes(s.shards[shardIdx], level, valid, make([]uint64, 0, len(valid)))
	var diff []uint32
	for i, idx := range valid {
		if mine[i] != theirs[i] {
			diff = append(diff, idx)
		}
	}
	if len(diff) == 0 {
		// The root digests differed but no queried node does: either
		// repair already landed through another path, or the peer holds
		// keys this store lacks entirely (its advertisement to the peer
		// repairs that direction). Let the next heartbeat re-evaluate.
		s.repair.clear(int(shardIdx))
		return
	}
	if level == protocol.TreeDepth {
		s.statsMu.Lock()
		s.stats.TreeRounds++
		s.statsMu.Unlock()
		s.repair.markWant(int(shardIdx), from)
		m := protocol.NewTreeMsg(shardIdx, uint8(level), nil, nil, nil, diff)
		s.transmitMsg(from, m, frameDigest)
		return
	}
	if len(diff)*protocol.TreeFanout > treeMaxQuery {
		s.statsMu.Lock()
		s.stats.WantShards++
		s.statsMu.Unlock()
		s.repair.markWant(int(shardIdx), from)
		want := []uint32{shardIdx}
		m := protocol.NewDigestMsg(nil, want)
		s.transmitMsg(from, m, frameDigest)
		return
	}
	next := make([]uint32, 0, len(diff)*protocol.TreeFanout)
	for _, idx := range diff {
		base := idx << protocol.TreeFanoutBits
		for c := uint32(0); c < protocol.TreeFanout; c++ {
			next = append(next, base+c)
		}
	}
	s.sendTreeQuery(from, shardIdx, level+1, next)
}

// serveTreeWant ships the requested node ranges' keys in full — the
// range-limited form of the full-shard repair ship.
func (s *Store) serveTreeWant(from string, shardIdx uint32, level int, want []uint32, b *outBatch) {
	batch, ranges, bytes, ok := s.rangeBatch(shardIdx, level, want)
	if !ok {
		return
	}
	b.sender(shardIdx)(from, batch)
	s.statsMu.Lock()
	s.stats.RepairRanges += ranges
	s.stats.RepairBytes += bytes
	s.statsMu.Unlock()
}

// rangeBatch builds a BatchMsg of per-key δ-groups carrying the whole
// states of the keys whose leaf index falls inside the wanted nodes'
// ranges — fullShardBatch restricted to diverged ranges. Duplicate and
// out-of-range want indices are served once or not at all, so the work
// is bounded by the shard, never the request.
func (s *Store) rangeBatch(shardIdx uint32, level int, want []uint32) (protocol.Msg, int, int, bool) {
	maxNode := uint32(protocol.TreeNodesAt(level))
	span := protocol.TreeLeafSpan(level)
	var leaves treeBitmap
	ranges := 0
	for _, w := range want {
		if w >= maxNode {
			continue
		}
		lo := w * span
		if leaves.has(lo) {
			continue
		}
		ranges++
		for l := lo; l < lo+span; l++ {
			leaves.set(l)
		}
	}
	if ranges == 0 {
		return nil, 0, 0, false
	}
	sh := s.shards[shardIdx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var items []protocol.ObjectMsg
	bytes := 0
	for _, k := range sh.engine.Keys() {
		if !leaves.has(treeLeafIdx(k)) {
			continue
		}
		st := sh.engine.ObjectState(k).Clone()
		bytes += len(k) + st.SizeBytes()
		items = append(items, protocol.ObjectMsg{
			Key:   k,
			Inner: protocol.NewDeltaMsg(st),
		})
	}
	if len(items) == 0 {
		// Nothing local in those ranges: the divergence is keys this
		// store lacks, repaired in the opposite direction by its own
		// advertisements. No delivery will clear the peer's repair slot,
		// so it expires by timeout.
		return nil, 0, 0, false
	}
	return protocol.BatchOf(items), ranges, bytes, true
}
