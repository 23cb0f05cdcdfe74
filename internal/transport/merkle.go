package transport

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"crdtsync/internal/codec"
	delta "crdtsync/internal/core"
	"crdtsync/internal/lattice"
	"crdtsync/internal/protocol"
)

// This file implements the repair side of digest anti-entropy: the
// per-shard Merkle hash tree, the drill that walks it from a root-digest
// mismatch down to the ranges worth shipping (protocol.TreeMsg), the
// state-driven synchronisation that closes a drill, and the slot table
// that keeps a shard to one drill at a time.

const (
	// defaultRepairTimeout bounds how long one shard's drill may hold its
	// slot without a message from the peer before the next digest mismatch
	// may start another. It is also the retry cadence when a drill's frame
	// is lost, so it stays close to the scale of a round trip plus a shard
	// ship; starting over early only costs a duplicate idempotent merge.
	defaultRepairTimeout = time.Second
	// drillStopBytes is where a drill stops descending: one more level
	// costs TreeFanout hashes of 8 bytes — 128 B — per differing node, and
	// a frame, so an end whose keys and states in the differing ranges add
	// up to no more than that per node ships them instead. Fixed by that
	// arithmetic, not tuned: a shard the size of one hash level never
	// drills at all (the whole-shard pull is the stop at level 0), and
	// below the leaf level there is nothing left to hash.
	drillStopBytes = 8 * protocol.TreeFanout
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

// validNodes returns the indices among nodes that exist at level, each
// once, marking the leaves they cover: whatever a message lists, the work
// it causes is bounded by the tree, never by its length.
func validNodes(level int, nodes []uint32, leaves *treeBitmap) []uint32 {
	maxNode, span := uint32(protocol.TreeNodesAt(level)), protocol.TreeLeafSpan(level)
	valid := make([]uint32, 0, min(len(nodes), int(maxNode)))
	for _, idx := range nodes {
		if idx >= maxNode || leaves.has(idx*span) {
			continue
		}
		valid = append(valid, idx)
		for l := idx * span; l < (idx+1)*span; l++ {
			leaves.set(l)
		}
	}
	return valid
}

// keyHash is one key's content hash: an FNV-1a fold over (key bytes,
// canonical encoding), passed through a 64-bit finalizer. A shard's digest
// and its tree leaves combine these by XOR (an empty shard or leaf is 0)
// — order-independent and updatable one key at a time, the incremental
// hashing of Bellare and Micciancio — and a commutative combination needs
// the finalizer. The bare fold ends in (h ^ lastByte) * prime, so for two
// keys whose encodings differ only in their last byte (counters holding 2
// and 3) swapping the states moves each key's hash by ±prime: summed, the
// moves cancel for one pair of keys in two, and XORed still for one of
// the 64 pairs TestSwappedStatesChangeDigestAndLeaf tries — two replicas
// that differ and advertise the same digest.
// Hashes are only ever compared between replicas running the same code,
// so the scheme is free to change between versions.
func keyHash(k string, enc []byte) uint64 {
	h := fnvFold(fnvFoldString(fnvOffset64, k), enc)
	h ^= h >> 33 // MurmurHash3's fmix64
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// leafVec is one shard's leaf-hash vector. 32 KB: a shard holds one only
// from the drill that folds it to the next mutation, and they are
// recycled, so the heap carries as many as there are drills under way.
type leafVec [protocol.TreeLeaves]uint64

var leafVecs = sync.Pool{New: func() any { return new(leafVec) }}

// ensureLeavesLocked folds the keys' content hashes, brought up to date,
// into the shard's leaf-hash vector, unless the one it holds is still
// valid. Caller holds sh.mu.
func (sh *shard) ensureLeavesLocked() {
	if sh.leaf != nil {
		return
	}
	sh.digestLocked()
	leaf := leafVecs.Get().(*leafVec)
	clear(leaf[:])
	sh.engine.Hashes(func(k string, hash uint64) { leaf[treeLeafIdx(k)] ^= hash })
	sh.leaf = leaf
}

// dropLeavesLocked hands the leaf-hash vector back: a mutation has
// invalidated it, or no drill is left to read it. Caller holds sh.mu.
func (sh *shard) dropLeavesLocked() {
	if sh.leaf != nil {
		leafVecs.Put(sh.leaf)
		sh.leaf = nil
	}
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

// childHashLocked is the shard's hash of one child of a node at level
// (an index already validated against the level's node count).
func (sh *shard) childHashLocked(level int, node uint32, child int) uint64 {
	span := protocol.TreeLeafSpan(level + 1)
	lo := (node<<protocol.TreeFanoutBits + uint32(child)) * span
	return treeNodeHash(sh.leaf[lo : lo+span])
}

// noBudget makes rangeKeysLocked list the keys without weighing them.
const noBudget = -1

// keyState is one object as a drill's close ships it: its key and its
// live state, to be read under the shard lock only.
type keyState struct {
	key string
	st  lattice.State
}

// rangeKeysLocked lists the shard's objects whose leaves are marked, in
// key order. Given a budget it gives up, reporting false, as soon as their
// keys and states weigh more than that many bytes — the drill's stop
// test, which on a fat range ends after a handful of keys.
func (sh *shard) rangeKeysLocked(leaves *treeBitmap, budget int) ([]keyState, bool) {
	var objs []keyState
	within := true
	sh.engine.Scan("", func(k string, st lattice.State) bool {
		if !leaves.has(treeLeafIdx(k)) {
			return true
		}
		if budget != noBudget {
			if budget -= len(k) + st.SizeBytes(); budget < 0 {
				objs, within = nil, false
				return false
			}
		}
		objs = append(objs, keyState{k, st})
		return true
	})
	return objs, within
}

// repairEntry is one shard's drill under way: the peer it runs with —
// whichever end started it — and when, on the core's clock, it expires if
// that peer goes silent.
type repairEntry struct {
	active  bool
	peer    string
	expires int64
}

// repairTable holds one slot per shard: at most one drill at a time,
// started here or served, so that heartbeats arriving faster than a
// repair completes, the peer's mirror-image drill and a third replica's
// are absorbed instead of run. A slot clears when the peer says the drill
// is over or this store has said so, when the shard's digests re-match, or
// by expiry.
type repairTable struct {
	mu       sync.Mutex
	timeout  int64 // RepairTimeout
	entries  []repairEntry
	timeouts int
}

// claim takes the shard's slot for a drill with peer, reporting whether
// the drill may proceed. A start — this store seeing a digest mismatch —
// is refused while any unexpired drill holds the slot. A drill message
// from peer claims a free slot (a store serving a drill holds its slot
// too), extends the deadline of one held against peer — a message is
// progress — and is refused only by a slot held against somebody else.
// Taking over an expired slot counts a timeout.
func (r *repairTable) claim(shard int, peer string, now int64, start bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := &r.entries[shard]
	if e.active && now < e.expires {
		if start || e.peer != peer {
			return false
		}
		e.expires = now + r.timeout
		return true
	}
	if e.active {
		r.timeouts++
	}
	*e = repairEntry{active: true, peer: peer, expires: now + r.timeout}
	return true
}

// clearFrom releases the shard's slot if it is held against peer: the
// drill with peer is over, by its word or by this store's.
func (r *repairTable) clearFrom(shard int, peer string) {
	r.mu.Lock()
	if e := &r.entries[shard]; e.active && e.peer == peer {
		*e = repairEntry{}
	}
	r.mu.Unlock()
}

// clear releases the shard's slot unconditionally — called when the
// shard's digests match again, however that happened — and reports
// whether a drill held it.
func (r *repairTable) clear(shard int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	held := r.entries[shard].active
	r.entries[shard] = repairEntry{}
	return held
}

// expired returns how many drills have been given up on.
func (r *repairTable) expired() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.timeouts
}

// catchUp is what is left to compare with one neighbor after another
// stopped reaching it (Store.setReach): bit i is set until an
// advertisement from the neighbor carries this store's digest of shard i.
type catchUp struct {
	// left counts the bits set; ticks and advertisements read it without
	// the lock, and it is zero all but always.
	left atomic.Int32
	mu   sync.Mutex
	bits []uint64
}

// all marks every one of shards and returns how many were not yet.
func (c *catchUp) all(shards int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bits == nil {
		c.bits = make([]uint64, (shards+63)/64)
	}
	added := shards - int(c.left.Load())
	for i := 0; i < shards; i++ {
		c.bits[i/64] |= 1 << (i % 64)
	}
	c.left.Store(int32(shards))
	return added
}

// done clears shard i's mark, if set.
func (c *catchUp) done(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bits[i/64]&(1<<(i%64)) != 0 {
		c.bits[i/64] &^= 1 << (i % 64)
		c.left.Add(-1)
	}
}

// rootNode is where every drill starts: level 0's only node, the shard.
var rootNode = []uint32{0}

// handleDigests compares a peer's digest advertisement against the
// local shards and starts a drill on whichever differ — unless one is
// already under way on that shard. What the drills ship at once (the
// whole-shard pulls of shards too small to hash) is left on b.
func (c *core) handleDigests(from string, digests []uint64, b *outBatch, now int64) {
	if len(digests) == 0 {
		return
	}
	if len(digests) != len(c.shards) {
		// Shard-count mismatch: the vectors are not comparable and
		// anti-entropy cannot repair anything — count it so a
		// misconfigured cluster says why it never converges.
		c.statsMu.Lock()
		c.stats.DigestShardMismatch++
		c.statsMu.Unlock()
		return
	}
	deduped := 0
	// Shards this store still has to see match at from, if any.
	var cu *catchUp
	if lk := c.links[from]; lk != nil && lk.catchUp.left.Load() > 0 {
		cu = &lk.catchUp
	}
	for i, sh := range c.shards {
		if c.shardDigest(sh) == digests[i] {
			if cu != nil {
				cu.done(i)
			}
			if c.repair.clear(i) {
				sh.mu.Lock()
				sh.dropLeavesLocked()
				sh.mu.Unlock()
			}
			continue
		}
		if !c.repair.claim(i, from, now, true) {
			deduped++
			continue
		}
		c.continueDrill(from, uint32(i), 0, rootNode, b)
	}
	c.countDeduped(deduped)
}

// countDeduped counts mismatches and drill messages a held slot absorbed.
func (c *core) countDeduped(n int) {
	if n > 0 {
		c.statsMu.Lock()
		c.stats.DedupedWants += n
		c.statsMu.Unlock()
	}
}

// transmitMsg encodes one control message and hands it to the peer's
// write pipeline. Encoding a message the store itself built can only
// fail on a programming error.
func (c *core) transmitMsg(to string, m protocol.Msg, kind frameKind) {
	data, err := codec.EncodeMsg(m)
	if err != nil {
		panic(err)
	}
	var t wireTally
	c.transmit(to, data, m.Cost(), kind, &t)
	c.wire.add(&t)
}

// handleTree takes a hash push: the peer's hashes of the children of the
// nodes the drill has found to differ so far. Those that differ from this
// store's own are where the drill continues. The decoder has checked the
// message's shape; the checks here are for messages built directly, and
// for the shard count, which is not wire-negotiated.
func (c *core) handleTree(from string, tm *protocol.TreeMsg, b *outBatch, now int64) {
	level := int(tm.Level)
	if int(tm.Shard) >= len(c.shards) || level >= protocol.TreeDepth ||
		len(tm.Nodes) == 0 || len(tm.Hashes) != protocol.TreeFanout*len(tm.Nodes) {
		return // shard-map or level skew, or a close outside a sharded frame
	}
	if !c.repair.claim(int(tm.Shard), from, now, false) {
		c.countDeduped(1) // this shard is busy with another peer's drill
		return
	}
	maxNode := uint32(protocol.TreeNodesAt(level))
	var seen treeBitmap
	var diff []uint32
	sh := c.shards[tm.Shard]
	sh.mu.Lock()
	sh.ensureLeavesLocked()
	for i, idx := range tm.Nodes {
		if idx >= maxNode || seen.has(idx) {
			continue // each node once, and none the tree does not have
		}
		seen.set(idx)
		for c, theirs := range tm.Hashes[i*protocol.TreeFanout : (i+1)*protocol.TreeFanout] {
			if sh.childHashLocked(level, idx, c) != theirs {
				diff = append(diff, idx<<protocol.TreeFanoutBits+uint32(c))
			}
		}
	}
	if len(diff) == 0 {
		// Nothing below those nodes differs any more: repair landed some
		// other way, and the drill ends here. Saying so frees the peer's
		// slot at once; left to the next matching digest it would turn
		// other replicas' drills on the shard away until then.
		sh.dropLeavesLocked()
		sh.mu.Unlock()
		c.repair.clearFrom(int(tm.Shard), from)
		b.add(tm.Shard, from, protocol.NewTreeMsg(tm.Shard, tm.Level, nil, nil))
		return
	}
	sh.mu.Unlock()
	c.continueDrill(from, tm.Shard, level+1, diff, b)
}

// continueDrill is the step both ends of a drill take on the nodes at
// level that they have found to differ (validated, each once): push this
// store's hashes of the nodes' children — one frame, to which the peer
// answers with the same step a level down — or stop, and close the drill
// over these ranges, when that is cheaper (drillStopBytes) or the leaves
// are reached.
func (c *core) continueDrill(peer string, shardIdx uint32, level int, nodes []uint32, b *outBatch) {
	var leaves treeBitmap
	nodes = validNodes(level, nodes, &leaves)
	budget := noBudget // below the leaves there is nothing to hash
	if level < protocol.TreeDepth {
		budget = drillStopBytes * len(nodes)
	}
	sh := c.shards[shardIdx]
	sh.mu.Lock()
	objs, stop := sh.rangeKeysLocked(&leaves, budget)
	var hashes []uint64
	if !stop {
		sh.ensureLeavesLocked()
		hashes = make([]uint64, 0, protocol.TreeFanout*len(nodes))
		for _, idx := range nodes {
			for c := 0; c < protocol.TreeFanout; c++ {
				hashes = append(hashes, sh.childHashLocked(level, idx, c))
			}
		}
	}
	sh.mu.Unlock()
	c.statsMu.Lock()
	if level == 0 && stop {
		c.stats.WantShards++
	} else {
		c.stats.TreeRounds++
	}
	c.statsMu.Unlock()
	if !stop {
		c.transmitMsg(peer, protocol.NewTreeMsg(shardIdx, uint8(level), nodes, hashes), frameDigest)
		return
	}
	c.shipRange(peer, shardIdx, level, nodes, objs, nil, b)
}

// answerClose serves the close that ended a drill, once its shard group g
// — the peer's states for the ranges it names — has been merged: this
// store's answer is, for every key it holds in those ranges, what the
// peer's state of it lacks.
func (c *core) answerClose(from string, tm *protocol.TreeMsg, g codec.ItemGroup, b *outBatch, now int64) {
	level := int(tm.Level)
	if tm.Shard != g.Shard || level > protocol.TreeDepth {
		return
	}
	var leaves treeBitmap
	nodes := validNodes(level, tm.Nodes, &leaves)
	if len(nodes) == 0 {
		return
	}
	if !c.repair.claim(int(g.Shard), from, now, false) {
		c.countDeduped(1) // this shard is busy with another peer's drill
		return
	}
	theirs := make(map[string]lattice.State, len(g.Items))
	for i := range g.Items {
		iv := &g.Items[i]
		m, _ := iv.Msg()
		if dm, ok := m.(*protocol.DeltaMsg); ok && iv.Key != nil {
			theirs[string(iv.Key)] = dm.Delta
		}
	}
	sh := c.shards[g.Shard]
	sh.mu.Lock()
	objs, _ := sh.rangeKeysLocked(&leaves, noBudget)
	sh.dropLeavesLocked() // the drill is over
	sh.mu.Unlock()
	shipped := c.shipRange(from, g.Shard, level, nil, objs, theirs, b)
	c.repair.clearFrom(int(g.Shard), from)
	if shipped {
		c.statsMu.Lock()
		if level == 0 {
			c.stats.RepairShards++
		} else {
			c.stats.RepairRanges += len(nodes)
		}
		c.statsMu.Unlock()
	}
}

// repairChunkBytes caps the key+state payload cloned and shipped per
// chunk of a close. A wide answer on a large shard — restoring a peer from
// a stale snapshot is exactly this workload — would otherwise materialize
// the entire shard as one monolithic batch and lean on the packer to split
// it; chunking bounds the clone held in memory and the shard-lock hold
// time to one chunk at a time.
const repairChunkBytes = 1 << 20

// shipRange sends to one end's half of a drill's close over the ranges
// that objs lie in: a sequence of bounded BatchMsgs of per-key δ-groups,
// then the TreeMsg that says which half it was. A state is a valid
// δ-group, so the receiver merges each chunk through the ordinary
// per-object delivery path (RR extracts exactly the missing part) and
// propagates anything new onwards.
//
// With want it is the stopping side's half: whole states, no more than
// one frame's worth — a state left out is one the answer brings back in
// full — and the TreeMsg names want, asking for the answer. Without, it is
// that answer: Δ(mine, theirs) for a key the peer sent its state of, the
// whole state for any other, as many chunks as it takes, and a TreeMsg
// naming nothing.
//
// The shard lock is released between chunks (the keyspace is grow-only,
// and a state mutated meanwhile ships its newer value — anti-entropy never
// needs a point-in-time cut); each chunk but the last leaves on its own
// frame at once, the last and the TreeMsg are left on b. It reports
// whether any state was shipped.
func (c *core) shipRange(to string, shardIdx uint32, level int, want []uint32, objs []keyState, theirs map[string]lattice.State, b *outBatch) bool {
	sh := c.shards[shardIdx]
	budget := min(c.maxMsgBytes()/2, repairChunkBytes)
	total := 0
	for i := 0; ; {
		var items []protocol.ObjectMsg
		bytes := 0
		sh.mu.Lock()
		for ; i < len(objs); i++ {
			key, st := objs[i].key, objs[i].st
			t := theirs[key]
			if t != nil {
				if st = delta.Delta(st, t); st.IsBottom() {
					continue // the peer's state covers this store's
				}
			}
			sz := len(key) + st.SizeBytes()
			if len(items) > 0 && bytes+sz > budget {
				break // chunk full; an oversized single object still ships alone
			}
			if t == nil {
				st = st.Clone() // the message outlives the lock
			}
			bytes += sz
			items = append(items, protocol.ObjectMsg{Key: key, Inner: protocol.NewDeltaMsg(st)})
		}
		sh.mu.Unlock()
		total += bytes
		last := i == len(objs) || want != nil
		out := b
		if !last {
			// flush must not run under the shard lock, and accumulating
			// chunks on one batch would defeat the point of chunking.
			out = newOutBatch()
		}
		if len(items) > 0 {
			out.add(shardIdx, to, protocol.BatchOf(items))
		}
		if last {
			out.add(shardIdx, to, protocol.NewTreeMsg(shardIdx, uint8(level), want, nil))
			break
		}
		c.flush(out, nil)
	}
	if total > 0 {
		c.statsMu.Lock()
		c.stats.RepairBytes += total
		c.statsMu.Unlock()
	}
	return total > 0
}
