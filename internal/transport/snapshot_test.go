package transport

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// startSnapStore builds one peerless store persisting to dir, with the
// periodic snapshotter parked (SnapshotEvery one hour) so the tests
// drive SnapshotNow explicitly. Close is idempotent, so tests that
// stop and restart stores may Close them by hand as well.
func startSnapStore(t testing.TB, shards int, dir string) *Store {
	t.Helper()
	s, err := StartStore(StoreConfig{
		ID:            "n0",
		ListenAddr:    "127.0.0.1:0",
		Shards:        shards,
		Factory:       protocol.NewDeltaBPRR(),
		ObjType:       func(string) workload.Datatype { return workload.GSetType{} },
		SnapshotDir:   dir,
		SnapshotEvery: time.Hour,
	})
	if err != nil {
		t.Fatalf("StartStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// listenOn rebinds a listener on the exact address a closed store used,
// retrying briefly so a restart can reclaim its old identity.
func listenOn(t *testing.T, addr string) net.Listener {
	t.Helper()
	var lastErr error
	for i := 0; i < 200; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("re-listen %s: %v", addr, lastErr)
	return nil
}

// TestSnapshotRestoreRoundTrip pins the durability contract: a store
// snapshotted and restarted over the same directory comes back with the
// same keyspace, the same per-object states, and the same digest — with
// the restored keys counted in Stats and nothing re-shipped.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := startSnapStore(t, 4, dir)
	const n = 200
	for k := 0; k < n; k++ {
		s.Update(workload.Add(fmt.Sprintf("k%07d", k), "v"))
	}
	// A second element on one key: restore must reproduce the merged
	// state, not just the key's existence.
	s.Update(workload.Add("k0000000", "w"))
	if err := s.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	st := s.Stats()
	if st.SnapshotsWritten != 4 {
		t.Fatalf("SnapshotsWritten = %d, want 4 (one per shard)", st.SnapshotsWritten)
	}
	if st.SnapshotBytes <= 0 {
		t.Fatalf("SnapshotBytes = %d, want > 0", st.SnapshotBytes)
	}
	digest := s.Digest()
	merged := s.Get("k0000000")
	s.Close()

	s2 := startSnapStore(t, 4, dir)
	if got := s2.NumKeys(); got != n {
		t.Fatalf("restored NumKeys = %d, want %d", got, n)
	}
	if got := s2.Digest(); got != digest {
		t.Fatalf("restored digest %x != original %x", got, digest)
	}
	if got := s2.Get("k0000000"); got == nil || !got.Equal(merged) {
		t.Fatalf("restored state %v != original %v", got, merged)
	}
	st2 := s2.Stats()
	if st2.SnapshotRestoredKeys != n {
		t.Fatalf("SnapshotRestoredKeys = %d, want %d", st2.SnapshotRestoredKeys, n)
	}
	if st2.SnapshotRestoreErrors != 0 {
		t.Fatalf("SnapshotRestoreErrors = %d, want 0", st2.SnapshotRestoreErrors)
	}
	// Restored keys are quiescent: nothing sits in δ-buffers waiting to
	// re-ship the whole keyspace at the first peer contact.
	if m := s2.Memory(); m.BufferBytes != 0 {
		t.Fatalf("restored store holds %d buffered δ bytes, want 0", m.BufferBytes)
	}
}

// TestSnapshotSkipsCleanShards pins the incremental pass: a shard whose
// content digest has not moved since its last snapshot is not re-encoded
// or rewritten, and a single update dirties exactly one shard.
func TestSnapshotSkipsCleanShards(t *testing.T) {
	dir := t.TempDir()
	s := startSnapStore(t, 4, dir)
	for k := 0; k < 64; k++ {
		s.Update(workload.Add(fmt.Sprintf("k%07d", k), "v"))
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	if got := s.Stats().SnapshotsWritten; got != 4 {
		t.Fatalf("first pass wrote %d shards, want 4", got)
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	if got := s.Stats().SnapshotsWritten; got != 4 {
		t.Fatalf("clean pass rewrote shards: SnapshotsWritten = %d, want still 4", got)
	}
	s.Update(workload.Add("k0000000", "w"))
	if err := s.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	if got := s.Stats().SnapshotsWritten; got != 5 {
		t.Fatalf("one-key pass wrote %d total, want 5 (exactly one shard dirty)", got)
	}
}

// TestSnapshotRestoreShardCountChange pins the re-routing contract: keys
// are restored by hashing, not by trusting the file's recorded shard
// index, so a store restarted with a different shard count still
// restores everything.
func TestSnapshotRestoreShardCountChange(t *testing.T) {
	dir := t.TempDir()
	s := startSnapStore(t, 4, dir)
	const n = 100
	for k := 0; k < n; k++ {
		s.Update(workload.Add(fmt.Sprintf("k%07d", k), "v"))
	}
	want := s.Get("k0000042")
	if err := s.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	s.Close()

	s2 := startSnapStore(t, 2, dir)
	if got := s2.NumKeys(); got != n {
		t.Fatalf("restored NumKeys = %d with 2 shards, want %d", got, n)
	}
	if got := s2.Get("k0000042"); got == nil || !got.Equal(want) {
		t.Fatalf("restored state %v != original %v", got, want)
	}
}

// TestSnapshotCorruptRestoreFallback pins the hostile-disk contract: a
// corrupt or truncated snapshot file never panics and never partially
// applies — it contributes nothing, the error is counted, and every
// other shard's file restores normally.
func TestSnapshotCorruptRestoreFallback(t *testing.T) {
	dir := t.TempDir()
	s := startSnapStore(t, 4, dir)
	const per = 25
	var perShard [4][]string
	for i := range perShard {
		perShard[i] = keysOnShard(s.mask, uint32(i), per)
		for _, k := range perShard[i] {
			s.Update(workload.Add(k, "v"))
		}
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	s.Close()

	// Shard 0: one byte flipped mid-file (CRC catches it). Shard 1:
	// truncated mid-frame. A stray junk .snap rides along; a .tmp
	// leftover must be ignored entirely.
	p0 := snapshotPath(dir, 0)
	data, err := os.ReadFile(p0)
	if err != nil {
		t.Fatalf("read %s: %v", p0, err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(p0, data, 0o644); err != nil {
		t.Fatalf("corrupt %s: %v", p0, err)
	}
	p1 := snapshotPath(dir, 1)
	if err := os.Truncate(p1, 9); err != nil {
		t.Fatalf("truncate %s: %v", p1, err)
	}
	junk := filepath.Join(dir, "zz-junk.snap")
	if err := os.WriteFile(junk, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatalf("write junk: %v", err)
	}
	tmp := filepath.Join(dir, "shard-0002.snap.tmp")
	if err := os.WriteFile(tmp, []byte("torn write leftovers"), 0o644); err != nil {
		t.Fatalf("write tmp: %v", err)
	}

	s2 := startSnapStore(t, 4, dir)
	if got, want := s2.NumKeys(), 2*per; got != want {
		t.Fatalf("restored NumKeys = %d, want %d (shards 2 and 3 only)", got, want)
	}
	for _, k := range perShard[2] {
		if st := s2.Get(k); st == nil || st.IsBottom() {
			t.Fatalf("intact shard's key %q missing after restore", k)
		}
	}
	for _, k := range perShard[0] {
		if st := s2.Get(k); st != nil && !st.IsBottom() {
			t.Fatalf("corrupt shard's key %q partially applied", k)
		}
	}
	st2 := s2.Stats()
	if st2.SnapshotRestoreErrors != 3 {
		t.Fatalf("SnapshotRestoreErrors = %d, want 3 (flipped, truncated, junk)", st2.SnapshotRestoreErrors)
	}
	if st2.SnapshotRestoredKeys != 2*per {
		t.Fatalf("SnapshotRestoredKeys = %d, want %d", st2.SnapshotRestoredKeys, 2*per)
	}
}

// TestKillRestartUnderTraffic is the crash-restart fault battery (run
// under -race in CI): a live pair under continuous writes has one
// replica killed mid-traffic and restarted from its last snapshot on the
// same identity and address; the cluster must reconverge on the full
// keyspace, with the restart seeded from disk rather than empty.
func TestKillRestartUnderTraffic(t *testing.T) {
	ids := [2]string{"p-00", "p-01"}
	var addrs [2]string
	var listeners [2]net.Listener
	for i := range ids {
		listeners[i] = listenOn(t, "127.0.0.1:0")
		addrs[i] = listeners[i].Addr().String()
	}
	dir := t.TempDir()
	start := func(i int, ln net.Listener) *Store {
		cfg := StoreConfig{
			ID:        ids[i],
			Listener:  ln,
			Peers:     map[string]string{ids[1-i]: addrs[1-i]},
			Nodes:     ids[:],
			Shards:    4,
			Factory:   protocol.NewDeltaAcked(true, true),
			ObjType:   func(string) workload.Datatype { return workload.GSetType{} },
			SyncEvery: 5 * time.Millisecond,
			// Digest anti-entropy is what repairs the restart's snapshot
			// gap: keys the dead incarnation had acknowledged are out of
			// the peer's retransmission buffer for good.
			DigestEvery: 2,
		}
		if i == 1 {
			cfg.SnapshotDir = dir
			cfg.SnapshotEvery = time.Hour // SnapshotNow driven by the test
		}
		st, err := StartStore(cfg)
		if err != nil {
			t.Fatalf("start %s: %v", ids[i], err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	s0, s1 := start(0, listeners[0]), start(1, listeners[1])

	key := func(k int) string { return fmt.Sprintf("k%07d", k) }
	const before, total = 300, 900
	for k := 0; k < before; k++ {
		s0.Update(workload.Add(key(k), "v"))
	}
	deadline := time.Now().Add(20 * time.Second)
	for s1.NumKeys() < before {
		if time.Now().After(deadline) {
			t.Fatalf("pre-kill sync stalled: s1 holds %d/%d keys", s1.NumKeys(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s1.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}

	// Kill s1 while a writer keeps hammering s0, restart it mid-stream.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := before; k < total; k++ {
			s0.Update(workload.Add(key(k), "v"))
			if k%25 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	s1.Close()
	time.Sleep(30 * time.Millisecond) // traffic keeps flowing into the dead peer
	s1b := start(1, listenOn(t, addrs[1]))
	if got := s1b.Stats().SnapshotRestoredKeys; got < before {
		t.Fatalf("restart restored %d keys, want >= %d from the snapshot", got, before)
	}
	<-done

	if err := WaitConverged([]*Store{s0, s1b}, total, 30*time.Second, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRepairScalesWithSnapshotStaleness is the recovery-cost pin from
// the durability change: a replica restored from a snapshot S keys
// stale must be repaired by shipping an amount of data that grows with
// S and stays far below re-shipping the keyspace. Measured on the
// serving side (the healthy replica's RepairBytes), with the δ-path
// black-holed so every repaired byte went through digest anti-entropy
// and the Merkle drill-down.
func TestRepairScalesWithSnapshotStaleness(t *testing.T) {
	small, fullSmall := measureStaleRepair(t, 5)
	large, fullLarge := measureStaleRepair(t, 50)
	if small <= 0 {
		t.Fatalf("repair served %d bytes for a stale restart, want > 0", small)
	}
	if large <= small {
		t.Fatalf("repair bytes did not grow with staleness: %d (S=50) vs %d (S=5)", large, small)
	}
	if small*8 >= fullSmall {
		t.Fatalf("S=5 repair shipped %d bytes, want far below the %d-byte keyspace", small, fullSmall)
	}
	if large*4 >= fullLarge {
		t.Fatalf("S=50 repair shipped %d bytes, want far below the %d-byte keyspace", large, fullLarge)
	}
}

// measureStaleRepair stages two replicas with identical keyspaces,
// snapshots one, makes the snapshot stale by applying `stale` more keys
// to the other replica only (their deltas drained into a black hole),
// then kills and restarts the snapshotted replica on its old identity
// and address, heals the network, and drives manual ticks until the
// pair reconverges. It returns the healthy replica's served repair
// bytes and the total keyspace payload size for comparison.
func measureStaleRepair(t *testing.T, stale int) (repairBytes, fullBytes int) {
	t.Helper()
	const shared = 600 // far more than a level of hashes: the shard drills
	f0, f1 := NewFault(1), NewFault(2)
	f0.SetDropRate(1)
	f1.SetDropRate(1)
	faults := [2]*Fault{f0, f1}
	ids := [2]string{"r-00", "r-01"}
	var addrs [2]string
	var listeners [2]net.Listener
	for i := range ids {
		listeners[i] = listenOn(t, "127.0.0.1:0")
		addrs[i] = listeners[i].Addr().String()
	}
	dir := t.TempDir()
	start := func(i int, ln net.Listener) *Store {
		cfg := repairPairConfig()
		cfg.ID = ids[i]
		cfg.Listener = ln
		cfg.Peers = map[string]string{ids[1-i]: addrs[1-i]}
		cfg.Nodes = ids[:]
		cfg.Dial = faults[i].Dialer(nil)
		if i == 1 {
			cfg.SnapshotDir = dir
			cfg.SnapshotEvery = time.Hour
		}
		st, err := StartStore(cfg)
		if err != nil {
			t.Fatalf("start %s: %v", ids[i], err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	s0, s1 := start(0, listeners[0]), start(1, listeners[1])

	loadIdentical([2]*Store{s0, s1}, shared)
	drainInto(t, s0)
	drainInto(t, s1)
	if err := s1.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	// The snapshot goes stale: these keys exist only on s0, their deltas
	// lost to the black hole.
	for k := shared; k < shared+stale; k++ {
		s0.Update(workload.Add(fmt.Sprintf("k%07d", k), "v"))
	}
	drainInto(t, s0)

	s1.Close()
	s1 = start(1, listenOn(t, addrs[1]))
	if got := s1.NumKeys(); got != shared {
		t.Fatalf("restart restored %d keys, want %d", got, shared)
	}
	f0.SetDropRate(0)
	f1.SetDropRate(0)

	base := s0.Stats().RepairBytes
	want := shared + stale
	deadline := time.Now().Add(20 * time.Second)
	for {
		s0.SyncNow()
		s1.SyncNow()
		if s0.NumKeys() == want && s1.NumKeys() == want && s0.Digest() == s1.Digest() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale restart did not reconverge: s1 holds %d/%d keys", s1.NumKeys(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, k := range s0.Keys() {
		fullBytes += len(k) + s0.Get(k).SizeBytes()
	}
	return s0.Stats().RepairBytes - base, fullBytes
}
