package transport

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// scratchDigest recomputes one shard's digest and the hashes of its tree
// from its objects alone, ignoring every cached hash: nodes[level] holds
// every node of the level in index order, each the XOR of its keys'
// content hashes, the leaves at protocol.TreeDepth.
func scratchDigest(sh *shard) (digest uint64, nodes [protocol.TreeDepth + 1][]uint64) {
	for level := range nodes {
		nodes[level] = make([]uint64, protocol.TreeNodesAt(level))
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.ks.Scan("", func(k string, st lattice.State) bool {
		h := keyHash(k, codec.AppendState(nil, st))
		digest ^= h
		for level := range nodes {
			nodes[level][protocol.TreeLeafOf(k)/protocol.TreeLeafSpan(level)] ^= h
		}
		return true
	})
	return digest, nodes
}

// shardDigest returns sh's content digest, brought up to date under the
// core's lock.
func (s *Store) shardDigest(sh *shard) (d uint64) {
	s.locked(func() { d = sh.rehash() })
	return d
}

// childHashes returns what a push from sh at level carries when it names
// every node of the level: the hashes of every node a level down, in index
// order.
func (s *Store) childHashes(sh *shard, level int) (h []uint64) {
	nodes := make([]uint32, protocol.TreeNodesAt(level))
	for i := range nodes {
		nodes[i] = uint32(i)
	}
	s.locked(func() { h = sh.childHashes(level, nodes) })
	return h
}

// checkDigests compares every shard's incremental digest, and its child
// hashes at every level a push is made from, with the recompute from
// scratch; the hashes a push from the root carries add up to the digest.
func checkDigests(t *testing.T, s *Store, step string) {
	t.Helper()
	for i, sh := range s.shards {
		want, wantNodes := scratchDigest(sh)
		if got := s.shardDigest(sh); got != want {
			t.Fatalf("%s: shard %d digest %#x, from scratch %#x", step, i, got, want)
		}
		for level := 0; level < protocol.TreeDepth; level++ {
			if got := s.childHashes(sh, level); !slices.Equal(got, wantNodes[level+1]) {
				t.Fatalf("%s: shard %d: the child hashes of level %d differ from the recompute", step, i, level)
			}
		}
		sum := uint64(0)
		for _, h := range s.childHashes(sh, 0) {
			sum ^= h
		}
		if sum != want {
			t.Fatalf("%s: shard %d: the root's child hashes XOR to %#x, the digest is %#x", step, i, sum, want)
		}
	}
}

// TestIncrementalDigestMatchesRecompute runs seeded random histories over
// every way a key's state changes or seems to — Update, a delivered frame
// of δ-groups (fresh, redundant, for new keys), acknowledgements, a
// restored record, the range merge that closes a drill — and after every
// step holds the incremental shard digests and the child hashes a push
// carries at every level against a recompute from scratch. Digests are
// asked for at random points too, so stale sets of every size get folded
// in.
func TestIncrementalDigestMatchesRecompute(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for name, engine := range storeEngines {
			rng := rand.New(rand.NewSource(seed))
			s := startSoloStoreWith(t, 4, engine)
			key := func() string { return fmt.Sprintf("k%03d", rng.Intn(150)) }
			for step := 0; step < 300; step++ {
				var what string
				switch rng.Intn(6) {
				case 0, 1:
					what = "update"
					s.Update(workload.Add(key(), fmt.Sprintf("e%d", rng.Intn(6))))
				case 2:
					what = "frame"
					var items []protocol.ShardItem
					named := make(map[string]bool) // a frame names a key once
					for n := 1 + rng.Intn(4); n > 0; n-- {
						k := key()
						if named[k] {
							continue
						}
						named[k] = true
						items = append(items, protocol.ShardItem{Shard: protocol.ShardOf(k, len(s.shards)), Msg: batchOf([]protocol.ObjectMsg{
							{Key: k, Inner: protocol.NewDeltaMsg(crdt.NewGSet(fmt.Sprintf("e%d", rng.Intn(6))))},
						})})
					}
					if err := s.deliver("peer", dataFrame(t, items...)); err != nil {
						t.Fatal(err)
					}
				case 3:
					what = "ack"
					k := key()
					sh := s.shardOf(k)
					sh.mu.Lock()
					sh.ks.Ack("peer", k, []uint64{uint64(rng.Intn(5))}, false)
					sh.mu.Unlock()
				case 4:
					what = "restore"
					k := key()
					sh := s.shardOf(k)
					sh.mu.Lock()
					sh.ks.RestoreObject(k, crdt.NewGSet("r", fmt.Sprintf("e%d", rng.Intn(6))))
					sh.mu.Unlock()
				case 5:
					what = "close"
					shard := uint32(rng.Intn(4))
					keys := keysOnShard(len(s.shards), shard, 1+rng.Intn(3))
					if err := s.deliver("peer", closeFrame(t, shard, protocol.NewTreeMsg(shard, 0, rootNode, nil), keys...)); err != nil {
						t.Fatal(err)
					}
				}
				if rng.Intn(3) == 0 {
					checkDigests(t, s, fmt.Sprintf("%s seed %d step %d (%s)", name, seed, step, what))
				}
			}
			checkDigests(t, s, fmt.Sprintf("%s seed %d end", name, seed))
		}
	}
}

// TestDigestIndependentOfArrivalOrder: two stores fed the same operations
// — one in issue order with digests asked for along the way, one shuffled,
// every shard's operations interleaved differently, digest asked once —
// report the same Digest, and it is the recompute's.
func TestDigestIndependentOfArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ops []workload.Op
	for i := 0; i < 2000; i++ {
		ops = append(ops, workload.Add(fmt.Sprintf("k%04d", rng.Intn(700)), fmt.Sprintf("e%d", rng.Intn(9))))
	}
	a, b := startSoloStore(t, 8), startSoloStore(t, 8)
	for i, op := range ops {
		a.Update(op)
		if i%97 == 0 {
			a.Digest()
		}
	}
	shuffled := append([]workload.Op(nil), ops...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, op := range shuffled {
		b.Update(op)
	}
	if da, db := a.Digest(), b.Digest(); da != db {
		t.Fatalf("same operations, different orders: digests %#x and %#x", da, db)
	}
	checkDigests(t, a, "in order")
	checkDigests(t, b, "shuffled")
}

// sameLeafKeys returns two keys that fall in the same leaf of a
// one-shard store's tree.
func sameLeafKeys(salt int) (string, string) {
	first := map[uint32]string{}
	for i := 0; ; i++ {
		k := fmt.Sprintf("c/%d-%d", salt, i)
		if other, ok := first[protocol.TreeLeafOf(k)]; ok {
			return other, k
		}
		first[protocol.TreeLeafOf(k)] = k
	}
}

// TestSwappedStatesChangeDigestAndLeaf: replica X holds a=2, b=3 and
// replica Y holds a=3, b=2 — counters whose encodings differ in their
// last byte only. A commutative combination of bare FNV-1a folds, which
// end in (h ^ lastByte) * prime, gives the two replicas equal shard
// digests, and equal leaves when a and b share one, for one such pair in
// two under addition and for pair 7 of these 64 under XOR: divergence no
// drill would ever start on. With each key's hash finalized before it is
// combined none of the pairs collides, at shard level or in the leaf the
// two keys share.
func TestSwappedStatesChangeDigestAndLeaf(t *testing.T) {
	counters := func(string) workload.Datatype { return workload.GCounterType{} }
	solo := func() *Store {
		s, err := StartStore(StoreConfig{ID: "n0", ListenAddr: "127.0.0.1:0", Shards: 1, Engine: EngineDelta, ObjType: counters})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	for pair := 0; pair < 64; pair++ {
		ka, kb := sameLeafKeys(pair)
		x, y := solo(), solo()
		x.Update(workload.Inc(ka, 2))
		x.Update(workload.Inc(kb, 3))
		y.Update(workload.Inc(ka, 3))
		y.Update(workload.Inc(kb, 2))
		ea, eb := codec.AppendState(nil, x.Get(ka)), codec.AppendState(nil, x.Get(kb))
		if n := len(ea); n != len(eb) || string(ea[:n-1]) != string(eb[:n-1]) || ea[n-1] == eb[n-1] {
			t.Fatalf("the two counters encode to %x and %x: not a last-byte difference", ea, eb)
		}
		if dx, dy := x.Digest(), y.Digest(); dx == dy {
			t.Errorf("pair %d (%s, %s): swapped states, equal store digests %#x", pair, ka, kb, dx)
		}
		_, nx := scratchDigest(x.shards[0])
		_, ny := scratchDigest(y.shards[0])
		if leaf := protocol.TreeLeafOf(ka); nx[protocol.TreeDepth][leaf] == ny[protocol.TreeDepth][leaf] {
			t.Errorf("pair %d (%s, %s): swapped states, equal leaf %d", pair, ka, kb, leaf)
		}
		checkDigests(t, x, "x")
		checkDigests(t, y, "y")
	}
}

// TestDigestAfterOneWriteCostsOneKey pins what a digest costs: after one
// write to a 300 000-key store Digest hashes that one object again — a
// microsecond, against 1.7 ms when it walked the written shard. The count
// is exact; the time bound is on the fastest of twenty, so that a busy
// machine does not fail it, and is not applied under the race detector.
func TestDigestAfterOneWriteCostsOneKey(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 300k-key store")
	}
	const keys = 300_000
	s := startSoloStore(t, 64)
	for i := 0; i < keys; i++ {
		s.Update(workload.Add(fmt.Sprintf("k%07d", i), "v"))
	}
	s.Digest()
	best := time.Hour
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("k%07d", i*9973)
		s.Update(workload.Add(k, fmt.Sprintf("w%d", i)))
		stale, visited := 0, 0
		s.locked(func() {
			for _, sh := range s.shards {
				if sh.ks.Stale() {
					stale++
				}
			}
			sh := s.shardOf(k)
			sh.mu.Lock()
			sh.ks.Rehash(func(_ string, _ lattice.State, _ *uint64) { visited++ })
			sh.mu.Unlock()
		})
		if stale != 1 {
			t.Fatalf("one write left %d shards out of date", stale)
		}
		if visited != 1 {
			t.Fatalf("one write left %d keys to hash again", visited)
		}
		// The count consumed the stale mark; the write below sets it again.
		s.Update(workload.Add(k, fmt.Sprintf("x%d", i)))
		start := time.Now()
		s.Digest()
		best = min(best, time.Since(start))
	}
	t.Logf("Digest after one write to %d keys: %v", keys, best)
	if best > 50*time.Microsecond && !raceDetector {
		t.Errorf("Digest after one write took %v at best, want ≤ 50µs", best)
	}
	checkDigests(t, s, "after the writes")
}

// TestSnapshotEmptyShardWritesNoFile: the empty shard's digest is zero,
// which is also what snapLast holds for a shard never written — so a
// shard nothing was written to gets no file, however many passes run, and
// a store restarted over the directory restores the missing files as
// empty shards and reports the same digest.
func TestSnapshotEmptyShardWritesNoFile(t *testing.T) {
	dir := t.TempDir()
	s := startSnapStore(t, 4, dir)
	if d := s.shardDigest(s.shards[0]); d != 0 {
		t.Fatalf("empty shard digest %#x, want 0", d)
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Fatalf("an empty store wrote %v", files)
	}
	for _, k := range keysOnShard(len(s.shards), 2, 5) {
		s.Update(workload.Add(k, "v"))
	}
	for pass := 0; pass < 2; pass++ {
		if err := s.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.SnapshotsWritten != 1 {
		t.Fatalf("SnapshotsWritten = %d, want 1: one shard holds keys", st.SnapshotsWritten)
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 1 || files[0].Name() != filepath.Base(snapshotPath(dir, 2)) {
		t.Fatalf("snapshot directory holds %v, want shard 2's file alone", files)
	}
	digest := s.Digest()
	s.Close()
	s2 := startSnapStore(t, 4, dir)
	if got := s2.NumKeys(); got != 5 {
		t.Fatalf("restored %d keys, want 5", got)
	}
	if got := s2.Digest(); got != digest {
		t.Fatalf("restored digest %#x, want %#x", got, digest)
	}
	if st := s2.Stats(); st.SnapshotRestoreErrors != 0 {
		t.Fatalf("SnapshotRestoreErrors = %d", st.SnapshotRestoreErrors)
	}
}

// TestStoreHostileKeyLengths takes the empty key, a key one byte past the
// arena's largest chunk and a megabyte key through a store's three doors:
// Update, a frame from a peer, a snapshot restored at start-up. Each is
// held whole, counted in the digest and handed out whole by Scan.
func TestStoreHostileKeyLengths(t *testing.T) {
	keys := []string{"", strings.Repeat("k", 1<<16+1), strings.Repeat("m", 1<<20)}
	dir := t.TempDir()
	a := startSnapStore(t, 4, dir)
	b := startSoloStore(t, 4)
	for _, k := range keys {
		a.Update(workload.Add(k, "v"))
		frame := dataFrame(t, protocol.ShardItem{
			Shard: protocol.ShardOf(k, len(b.shards)),
			Msg:   batchOf([]protocol.ObjectMsg{{Key: k, Inner: protocol.NewDeltaMsg(crdt.NewGSet("v"))}}),
		})
		if err := b.deliver("peer", frame); err != nil {
			t.Fatalf("key of %d bytes: frame refused: %v", len(k), err)
		}
	}
	if err := a.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	c := startSnapStore(t, 4, dir)
	for name, s := range map[string]*Store{"updated": a, "delivered": b, "restored": c} {
		var got []string
		s.Scan("", func(k string, st lattice.State) bool {
			if !st.Equal(crdt.NewGSet("v")) {
				t.Errorf("%s: key of %d bytes holds %v", name, len(k), st)
			}
			got = append(got, k)
			return true
		})
		if len(got) != 3 || got[0] != keys[0] || got[1] != keys[1] || got[2] != keys[2] {
			t.Errorf("%s: Scan hands out %d keys, want the three whole", name, len(got))
		}
		if !s.View(keys[2], func(lattice.State) {}) || s.View(keys[2][1:], func(lattice.State) {}) {
			t.Errorf("%s: the megabyte key is not found under exactly its bytes", name)
		}
		checkDigests(t, s, name)
	}
	if da, db, dc := a.Digest(), b.Digest(), c.Digest(); da != db || da != dc {
		t.Errorf("digests %#x (updated) %#x (delivered) %#x (restored)", da, db, dc)
	}
}
