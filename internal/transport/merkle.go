package transport

import (
	"slices"
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
	// repairTimeout bounds how long one shard's drill — started here or
	// served — may hold its slot without a message from the peer before
	// the next digest mismatch may start another. While a drill is under
	// way further mismatching heartbeats for that shard, and other peers'
	// drills on it, are deduplicated rather than run. It is also the retry
	// cadence when a drill's frame is lost, so it stays close to the scale
	// of a round trip plus a shard ship; starting over early only costs a
	// duplicate idempotent merge.
	repairTimeout = time.Second
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
// hasher escapes through the interface and would allocate).
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
// canonical encoding), passed through a 64-bit finalizer. Every node of a
// shard's tree is the XOR of its keys' hashes, and the root is the shard's
// digest (an empty node is 0): order-independent and updatable one key at
// a time, the incremental hashing of Bellare and Micciancio. A commutative
// combination needs the finalizer. The bare fold ends in
// (h ^ lastByte) * prime, so for two keys whose encodings differ only in
// their last byte (counters holding 2 and 3) swapping the states moves
// each key's hash by ±prime: summed, the moves cancel for one pair of keys
// in two, and XORed still for one of the 64 pairs
// TestSwappedStatesChangeDigestAndLeaf tries — two replicas that differ
// and advertise the same digest. Hashes are only ever compared between
// replicas running the same code, so the scheme is free to change between
// versions.
func keyHash(k string, enc []byte) uint64 {
	h := fnvFold(fnvFoldString(fnvOffset64, k), enc)
	h ^= h >> 33 // MurmurHash3's fmix64
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// childHashes returns the shard's hashes of the children of nodes — valid
// indices at level, each listed once — TreeFanout per node in child order,
// as a hash push carries them. A node's hash, at every level, is the XOR of
// its keys' content hashes, as the shard's digest (the root's) is: one pass
// over the hashes the engine keeps, brought up to date, yields every child
// of every node, and nothing is kept between pushes.
func (sh *shard) childHashes(level int, nodes []uint32) []uint64 {
	sh.rehash()
	// slot holds, by node index, the node's place in nodes plus one.
	slot := make([]uint16, protocol.TreeNodesAt(level))
	for i, idx := range nodes {
		slot[idx] = uint16(i + 1)
	}
	hashes := make([]uint64, protocol.TreeFanout*len(nodes))
	shift := protocol.TreeFanoutBits * (protocol.TreeDepth - level - 1)
	sh.ks.Hashes(func(k string, hash uint64) {
		child := protocol.TreeLeafOf(k) >> shift
		if i := slot[child>>protocol.TreeFanoutBits]; i != 0 {
			hashes[int(i-1)<<protocol.TreeFanoutBits|int(child&(protocol.TreeFanout-1))] ^= hash
		}
	})
	return hashes
}

// noBudget makes rangeKeys list the keys without weighing them.
const noBudget = -1

// keyState is one object as a drill's close ships it, or as a Scan visits
// it: its key and its live state.
type keyState struct {
	key string
	st  lattice.State
}

// rangeKeys lists the shard's objects whose leaves are marked, in key
// order. Given a budget it gives up, reporting false, as soon as their
// keys and states weigh more than that many bytes — the drill's stop
// test, which on a fat range ends after a handful of keys.
func (sh *shard) rangeKeys(leaves *treeBitmap, budget int) ([]keyState, bool) {
	var objs []keyState
	within := true
	sh.mu.Lock() // Scan settles the key order
	defer sh.mu.Unlock()
	sh.ks.Scan("", func(k string, st lattice.State) bool {
		if !leaves.has(protocol.TreeLeafOf(k)) {
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
	timeout  int64 // repairTimeout
	entries  []repairEntry
	timeouts int
}

// claim takes the shard's slot for a drill with peer, reporting whether
// the drill may proceed. A start — this store seeing a digest mismatch —
// is refused while any unexpired drill holds the slot. A drill message
// from peer claims a free slot (a store serving a drill holds its slot
// too), extends the deadline of one held against peer — a message is
// progress — and takes over one held against a peer whose id orders after
// peer's. Only a slot held against a peer that orders before it refuses
// it. Were every other peer refused, three replicas could each hold a
// shard's slot against the next — s-00 against s-01, s-01 against s-02,
// s-02 against s-00 — and turn away every message of each other's drills
// until the slots expired, then rebuild the same ring from advertisements
// that arrive in step. Under the order, whoever a replica turns away
// orders after the peer it waits for, and that cannot hold all the way
// round a ring. The drill given up is left to its peer's expiry. Taking
// over an expired slot counts a timeout.
func (r *repairTable) claim(shard int, peer string, now int64, start bool) bool {
	e := &r.entries[shard]
	if e.active && now < e.expires {
		if start || peer > e.peer {
			return false
		}
		e.peer, e.expires = peer, now+r.timeout
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
	if e := &r.entries[shard]; e.active && e.peer == peer {
		*e = repairEntry{}
	}
}

// clear releases the shard's slot unconditionally: the shard's digests
// match again, however that happened.
func (r *repairTable) clear(shard int) {
	r.entries[shard] = repairEntry{}
}

// catchUp is what is left to compare with one neighbor after another
// stopped reaching it (Store.setReach): bit i is set until an
// advertisement from the neighbor carries this store's digest of shard i.
type catchUp struct {
	// left counts the bits set; it is zero all but always.
	left int
	bits []uint64
}

// all marks every one of shards and returns how many were not yet.
func (c *catchUp) all(shards int) int {
	if c.bits == nil {
		c.bits = make([]uint64, (shards+63)/64)
	}
	added := shards - c.left
	for i := 0; i < shards; i++ {
		c.bits[i/64] |= 1 << (i % 64)
	}
	c.left = shards
	return added
}

// done clears shard i's mark, if set.
func (c *catchUp) done(i int) {
	if c.bits[i/64]&(1<<(i%64)) != 0 {
		c.bits[i/64] &^= 1 << (i % 64)
		c.left--
	}
}

// rootNode is where every drill starts: level 0's only node, the shard.
var rootNode = []uint32{0}

// handleDigests compares a neighbor's digest advertisement against the
// local shards and starts a drill on whichever differ — unless one is
// already under way on that shard. What the drills ship at once (the
// whole-shard pulls of shards too small to hash) is left on b. A store
// drills with its neighbors only: nothing it sends anybody else leaves
// (transmit), so a drill with a stranger would hold the shard's slot for
// repairTimeout and turn the neighbors' drills away.
//
// A shard that differs first ends this store's holds on forwards toward
// from (protocol.PerObject.EndHolds): they may be what the two differ by,
// and the shard's flush puts them on b. Under the plain delta engine a
// shard that matched at from's last advertisement then waits for its next
// one before it drills: it most likely differs by what is in flight or
// held back — here, or at a third replica toward either, whose hold ends
// within two of its ticks — and a drill now would look for what those
// forwards are about to repair. The wait is one advertisement in a row at
// most, so writes that never pause, leaving something in flight at every
// advertisement, cannot put repair off for good; and none on a new
// connection, which may carry a restarted neighbor (handleHello). The
// acked engine holds nothing back and drills at once, as before.
func (c *core) handleDigests(from string, digests []uint64, b *outBatch, now int64) {
	if len(digests) == 0 {
		return
	}
	if len(digests) != len(c.shards) {
		// Shard-count mismatch: the vectors are not comparable and
		// anti-entropy cannot repair anything — count it so a
		// misconfigured cluster says why it never converges.
		c.stats.DigestShardMismatch++
		return
	}
	lk := c.links[from]
	if lk == nil {
		return
	}
	// Shards this store still has to see match at from, if any.
	var cu *catchUp
	if lk.catchUp.left > 0 {
		cu = &lk.catchUp
	}
	wait := c.cfg.Engine == EngineDelta
	for i, sh := range c.shards {
		if sh.rehash() == digests[i] {
			if cu != nil {
				cu.done(i)
			}
			c.repair.clear(i)
			lk.match(i, true, len(c.shards))
			continue
		}
		if sh.endHolds(from) {
			sh.pass(false, b.emit)
		}
		if lk.match(i, false, len(c.shards)) && wait {
			continue
		}
		if !c.repair.claim(i, from, now, true) {
			c.stats.DedupedWants++
			continue
		}
		c.continueDrill(from, uint32(i), 0, rootNode, b, now)
	}
}

// match records whether the neighbor's advertisement carried this store's
// digest of shard i, of shards, and reports whether its last one did.
func (l *link) match(i int, matched bool, shards int) bool {
	if l.matched == nil {
		l.matched = make([]uint64, (shards+63)/64)
	}
	w, bit := i/64, uint64(1)<<(i%64)
	was := l.matched[w]&bit != 0
	if matched {
		l.matched[w] |= bit
	} else {
		l.matched[w] &^= bit
	}
	return was
}

// transmitMsg encodes one control message and hands it to the peer's
// write pipeline. Encoding a message the store itself built can only
// fail on a programming error.
func (c *core) transmitMsg(to string, m protocol.Msg, kind frameKind) {
	data, err := codec.EncodeMsg(m)
	if err != nil {
		panic(err)
	}
	c.transmit(to, data, m.Cost(), kind)
}

// handleTree takes a hash push: the neighbor's hashes of the children of
// the nodes the drill has found to differ so far. Those that differ from
// this store's own are where the drill continues. The decoder has checked
// the message's shape; the checks here are for messages built directly,
// and for the shard count, which is not wire-negotiated.
func (c *core) handleTree(from string, tm *protocol.TreeMsg, b *outBatch, now int64) {
	level := int(tm.Level)
	if c.links[from] == nil || int(tm.Shard) >= len(c.shards) || level >= protocol.TreeDepth ||
		len(tm.Nodes) == 0 || len(tm.Hashes) != protocol.TreeFanout*len(tm.Nodes) {
		return // a stranger, shard-map or level skew, or a close outside a sharded frame
	}
	if !c.repair.claim(int(tm.Shard), from, now, false) {
		c.stats.DedupedWants++ // this shard is busy with another peer's drill
		return
	}
	// Each node once, and none the tree does not have.
	maxNode := uint32(protocol.TreeNodesAt(level))
	var seen treeBitmap
	var nodes []uint32
	var theirs []uint64
	for i, idx := range tm.Nodes {
		if idx < maxNode && !seen.has(idx) {
			seen.set(idx)
			nodes = append(nodes, idx)
			theirs = append(theirs, tm.Hashes[i*protocol.TreeFanout:(i+1)*protocol.TreeFanout]...)
		}
	}
	sh := c.shards[tm.Shard]
	var diff []uint32
	for i, h := range sh.childHashes(level, nodes) {
		if h != theirs[i] {
			diff = append(diff, nodes[i/protocol.TreeFanout]<<protocol.TreeFanoutBits+uint32(i%protocol.TreeFanout))
		}
	}
	if len(diff) == 0 {
		// Nothing below those nodes differs any more: repair landed some
		// other way, and the drill ends here. Saying so frees the peer's
		// slot at once; left to the next matching digest it would turn
		// other replicas' drills on the shard away until then.
		c.repair.clearFrom(int(tm.Shard), from)
		d := b.dest(slices.Index(c.neighbors, from))
		d.bare = append(d.bare, protocol.ShardItem{Shard: tm.Shard, Msg: protocol.NewTreeMsg(tm.Shard, tm.Level, nil, nil)})
		return
	}
	c.continueDrill(from, tm.Shard, level+1, diff, b, now)
}

// continueDrill is the step both ends of a drill take on the nodes at
// level that they have found to differ (validated, each once): push this
// store's hashes of the nodes' children — one frame, to which the peer
// answers with the same step a level down — or stop, and close the drill
// over these ranges, when that is cheaper (drillStopBytes) or the leaves
// are reached.
func (c *core) continueDrill(peer string, shardIdx uint32, level int, nodes []uint32, b *outBatch, now int64) {
	var leaves treeBitmap
	nodes = validNodes(level, nodes, &leaves)
	budget := noBudget // below the leaves there is nothing to hash
	if level < protocol.TreeDepth {
		budget = drillStopBytes * len(nodes)
	}
	sh := c.shards[shardIdx]
	objs, stop := sh.rangeKeys(&leaves, budget)
	if level == 0 && stop {
		c.stats.WantShards++
	} else {
		c.stats.TreeRounds++
	}
	if !stop {
		c.transmitMsg(peer, protocol.NewTreeMsg(shardIdx, uint8(level), nodes, sh.childHashes(level, nodes)), frameDigest)
		return
	}
	c.shipRange(peer, shardIdx, level, nodes, objs, nil, b, now)
}

// answerClose serves the close that ended a drill, once its shard group g
// — the neighbor's states for the ranges it names — has been merged: this
// store's answer is, for every key it holds in those ranges, what the
// neighbor's state of it lacks.
func (c *core) answerClose(from string, tm *protocol.TreeMsg, g codec.ItemGroup, b *outBatch, now int64) {
	level := int(tm.Level)
	if c.links[from] == nil || tm.Shard != g.Shard || level > protocol.TreeDepth {
		return
	}
	var leaves treeBitmap
	nodes := validNodes(level, tm.Nodes, &leaves)
	if len(nodes) == 0 {
		return
	}
	if !c.repair.claim(int(g.Shard), from, now, false) {
		c.stats.DedupedWants++ // this shard is busy with another peer's drill
		return
	}
	theirs := make(map[string]lattice.State, len(g.Items))
	for i := range g.Items {
		if iv := &g.Items[i]; iv.Key != nil {
			theirs[string(iv.Key)] = iv.State
		}
	}
	sh := c.shards[g.Shard]
	objs, _ := sh.rangeKeys(&leaves, noBudget)
	shipped := c.shipRange(from, g.Shard, level, nil, objs, theirs, b, now)
	c.repair.clearFrom(int(g.Shard), from)
	switch {
	case shipped && level == 0:
		c.stats.RepairShards++
	case shipped:
		c.stats.RepairRanges += len(nodes)
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
// that objs lie in: bounded chunks of per-key δ-groups, then the TreeMsg
// that says which half it was. A state is a valid δ-group, so the receiver
// merges each chunk through the ordinary per-object delivery path (RR
// extracts exactly the missing part) and propagates anything new onwards.
//
// With want it is the stopping side's half: whole states, no more than
// one frame's worth — a state left out is one the answer brings back in
// full — and the TreeMsg names want, asking for the answer. Without, it is
// that answer: Δ(mine, theirs) for a key the peer sent its state of, the
// whole state for any other, as many chunks as it takes, and a TreeMsg
// naming nothing.
//
// Each chunk but the last leaves on its own frames at once, the last and
// the TreeMsg are left on b, and a whole state shipped is a clone: what
// the caller goes on to apply before it flushes b must not change it. It
// reports whether any state was shipped.
func (c *core) shipRange(to string, shardIdx uint32, level int, want []uint32, objs []keyState, theirs map[string]lattice.State, b *outBatch, now int64) bool {
	budget := min(c.maxMsgBytes()/2, repairChunkBytes)
	total := 0
	var chunk outDest
	for i := 0; ; {
		bytes := 0
		for ; i < len(objs); i++ {
			key, st := objs[i].key, objs[i].st
			t := theirs[key]
			if t != nil {
				if st = delta.Delta(st, t); st.IsBottom() {
					continue // the peer's state covers this store's
				}
			}
			sz := len(key) + st.SizeBytes()
			if len(chunk.groups) > 0 && bytes+sz > budget {
				break // chunk full; an oversized single object still ships alone
			}
			if t == nil {
				st = st.Clone()
			}
			bytes += sz
			chunk.groups = append(chunk.groups, group{key: key, delta: st})
		}
		total += bytes
		if i == len(objs) || want != nil {
			d := b.dest(slices.Index(c.neighbors, to))
			d.groups = append(d.groups, chunk.groups...)
			d.bare = append(d.bare, protocol.ShardItem{Shard: shardIdx, Msg: protocol.NewTreeMsg(shardIdx, uint8(level), want, nil)})
			break
		}
		// Accumulating chunks on b would defeat the point of chunking.
		c.flushTo(to, &chunk, nil, now)
		chunk.groups = chunk.groups[:0]
	}
	c.stats.RepairBytes += total
	return total > 0
}
