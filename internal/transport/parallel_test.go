package transport

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// newTickStore builds a store with the given pool width and two
// unreachable peers, so engines have neighbors to emit to but nothing
// ever arrives from the wire; both background loops are pushed out to
// an hour so the tests drive every tick explicitly.
func newTickStore(t testing.TB, workers int, factory protocol.Factory) *Store {
	t.Helper()
	s, err := StartStore(StoreConfig{
		ID:          "n0",
		ListenAddr:  "127.0.0.1:0",
		Peers:       map[string]string{"p1": "127.0.0.1:1", "p2": "127.0.0.1:1"},
		Nodes:       []string{"n0", "p1", "p2"},
		Shards:      64,
		Factory:     factory,
		ObjType:     func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery:   time.Hour,
		SyncWorkers: workers,
	})
	if err != nil {
		t.Fatalf("StartStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// newPoolStore is a peerless store for pool-stage tests: no write
// pipelines exist, so nothing allocates in the background while a test
// measures.
func newPoolStore(t testing.TB, workers, shards int, snapDir string) *Store {
	t.Helper()
	cfg := StoreConfig{
		ID:          "n0",
		ListenAddr:  "127.0.0.1:0",
		Shards:      shards,
		Factory:     protocol.NewDeltaBPRR(),
		ObjType:     func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery:   time.Hour,
		SyncWorkers: workers,
	}
	if snapDir != "" {
		cfg.SnapshotDir = snapDir
		cfg.SnapshotEvery = time.Hour
	}
	s, err := StartStore(cfg)
	if err != nil {
		t.Fatalf("StartStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestParallelTickFramesByteIdentical is the tentpole's determinism
// pin: a pool tick captures emissions per shard (pre-encoding each item
// on the worker) and merges in ascending shard order, so the packed
// frame bytes to every destination must equal a serial tick's exactly —
// including a pure-retransmission round where the acked engines re-emit
// without new updates.
func TestParallelTickFramesByteIdentical(t *testing.T) {
	serial := newTickStore(t, 1, protocol.NewDeltaAcked(true, true))
	parallel := newTickStore(t, 4, protocol.NewDeltaAcked(true, true))
	limit := maxMsgFor(maxFrameBytes, "n0")
	for round := 0; round < 3; round++ {
		if round < 2 { // round 2 ticks with retransmissions only
			for k := 0; k < 300; k++ {
				op := workload.Add(fmt.Sprintf("key-%04d", k), fmt.Sprintf("e%d", round))
				serial.Update(op)
				parallel.Update(op)
			}
		}
		bs, bp := newOutBatch(), newOutBatch()
		if ts := serial.collect(bs, true); ts != nil {
			t.Fatalf("round %d: serial store took the parallel tick path", round)
		}
		tsp := parallel.collect(bp, true)
		if tsp == nil {
			t.Fatalf("round %d: 4-worker store took the serial tick path", round)
		}
		if len(bs.order) == 0 {
			t.Fatalf("round %d produced no emissions", round)
		}
		if !slices.Equal(bs.order, bp.order) {
			t.Fatalf("round %d: destination order %v (serial) vs %v (parallel)", round, bs.order, bp.order)
		}
		for _, to := range bs.order {
			rs, err := packFrames(bs.perDest[to], bs.perEnc[to], nil, limit)
			if err != nil {
				t.Fatalf("pack serial: %v", err)
			}
			rp, err := packFrames(bp.perDest[to], bp.perEnc[to], nil, limit)
			if err != nil {
				t.Fatalf("pack parallel: %v", err)
			}
			if len(rs.frames) != len(rp.frames) {
				t.Fatalf("round %d to %s: %d frames (serial) vs %d (parallel)",
					round, to, len(rs.frames), len(rp.frames))
			}
			for i := range rs.frames {
				if !bytes.Equal(rs.frames[i].data, rp.frames[i].data) {
					t.Fatalf("round %d to %s: frame %d bytes differ between serial and parallel ticks",
						round, to, i)
				}
			}
		}
		parallel.releaseTickScratch(tsp)
	}
	vs, vp := serial.shardDigests(), parallel.shardDigests()
	equal := slices.Equal(vs, vp)
	serial.putDigestVec(vs)
	parallel.putDigestVec(vp)
	if !equal {
		t.Fatal("digest vectors differ between serial and parallel stores")
	}
}

// TestParallelStagesMatchSerial loads identical content into a serial
// and a 4-worker store and checks every pooled read-side stage returns
// the same result: key listing, memory accounting, the root digest, the
// Merkle leaf vector (one shard with enough keys to cross the parallel
// threshold), and the snapshot files on disk.
func TestParallelStagesMatchSerial(t *testing.T) {
	dirS, dirP := t.TempDir(), t.TempDir()
	serial := newPoolStore(t, 1, 1, dirS)
	parallel := newPoolStore(t, 4, 1, dirP)
	const keys = leafParallelMinKeys + 1000
	for k := 0; k < keys; k++ {
		op := workload.Add(fmt.Sprintf("key-%05d", k), "e")
		serial.Update(op)
		parallel.Update(op)
	}
	if got, want := parallel.NumKeys(), serial.NumKeys(); got != want {
		t.Fatalf("NumKeys: %d (parallel) vs %d (serial)", got, want)
	}
	if !slices.Equal(parallel.Keys(), serial.Keys()) {
		t.Fatal("Keys() differs between serial and parallel stores")
	}
	if got, want := parallel.Memory(), serial.Memory(); got != want {
		t.Fatalf("Memory: %+v (parallel) vs %+v (serial)", got, want)
	}
	if got, want := parallel.Digest(), serial.Digest(); got != want {
		t.Fatalf("Digest: %#x (parallel) vs %#x (serial)", got, want)
	}
	leafOf := func(s *Store) []uint64 {
		sh := s.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		s.ensureLeaves(sh)
		return slices.Clone(sh.leaf)
	}
	if !slices.Equal(leafOf(parallel), leafOf(serial)) {
		t.Fatal("Merkle leaf vectors differ between serial and parallel recompute")
	}
	if err := serial.SnapshotNow(); err != nil {
		t.Fatalf("serial SnapshotNow: %v", err)
	}
	if err := parallel.SnapshotNow(); err != nil {
		t.Fatalf("parallel SnapshotNow: %v", err)
	}
	ds, err := os.ReadFile(filepath.Join(dirS, "shard-0000.snap"))
	if err != nil {
		t.Fatalf("read serial snapshot: %v", err)
	}
	dp, err := os.ReadFile(filepath.Join(dirP, "shard-0000.snap"))
	if err != nil {
		t.Fatalf("read parallel snapshot: %v", err)
	}
	if !bytes.Equal(ds, dp) {
		t.Fatal("snapshot bytes differ between serial and parallel encode")
	}
}

// TestRunShardStageCoversAllShards pins the claim loop's contract:
// every shard index is visited exactly once per stage, and the claims
// are accounted against the workers that made them.
func TestRunShardStageCoversAllShards(t *testing.T) {
	s := newPoolStore(t, 4, 64, "")
	before := uint64(0)
	for _, c := range s.Stats().SyncWorkerShards {
		before += c
	}
	var mu sync.Mutex
	counts := make([]int, len(s.shards))
	s.runShardStage(func(_, i int) {
		mu.Lock()
		counts[i]++
		mu.Unlock()
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("shard %d visited %d times, want 1", i, c)
		}
	}
	st := s.Stats()
	if st.SyncWorkers != 4 {
		t.Fatalf("Stats().SyncWorkers = %d, want 4", st.SyncWorkers)
	}
	after := uint64(0)
	for _, c := range st.SyncWorkerShards {
		after += c
	}
	if after-before != uint64(len(s.shards)) {
		t.Fatalf("claim accounting: %d shards recorded, want %d", after-before, len(s.shards))
	}
}

// TestCleanDigestPathNoAllocs pins the idle-store digest tick at zero
// allocations: with every shard's cached digest valid, shardDigests is
// a lock-free fill of a free-listed vector.
func TestCleanDigestPathNoAllocs(t *testing.T) {
	s := newPoolStore(t, 4, 64, "")
	for k := 0; k < 512; k++ {
		s.Update(workload.Add(fmt.Sprintf("key-%04d", k), "e"))
	}
	s.putDigestVec(s.shardDigests()) // compute caches, seed the free list
	allocs := testing.AllocsPerRun(100, func() {
		s.putDigestVec(s.shardDigests())
	})
	if allocs != 0 {
		t.Fatalf("clean-store digest path allocates %.1f per run, want 0", allocs)
	}
}

// TestResolveSyncWorkers pins the pool-width precedence: explicit
// config beats the env knob beats GOMAXPROCS, and a malformed knob is
// ignored.
func TestResolveSyncWorkers(t *testing.T) {
	t.Setenv(syncWorkersEnv, "3")
	if got := resolveSyncWorkers(0); got != 3 {
		t.Fatalf("env knob: got %d, want 3", got)
	}
	if got := resolveSyncWorkers(2); got != 2 {
		t.Fatalf("explicit config: got %d, want 2", got)
	}
	t.Setenv(syncWorkersEnv, "bogus")
	if got, want := resolveSyncWorkers(0), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("malformed knob: got %d, want GOMAXPROCS (%d)", got, want)
	}
}
