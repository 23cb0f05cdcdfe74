package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"crdtsync"
)

// The persist experiment measures the crash-restart durability path end
// to end over the public API: a two-node TCP cluster under traffic has
// one replica snapshotted, killed, and restarted over the same snapshot
// directory with varying amounts of post-snapshot divergence. Each row
// reports how much the restart restored from disk, how long restore and
// reconvergence took, and how many repair bytes the healthy replica
// served — the number that must grow with snapshot staleness, not with
// keyspace size.

// persistBenchConfig parameterizes the crash-restart benchmark.
type persistBenchConfig struct {
	Keys      int           // shared keyspace loaded before the crash
	Shards    int           // shards per node
	SyncEvery time.Duration // synchronization period
	Out       string        // JSON artifact path ("" = stdout only)
}

// persistRow is one staleness point of the sweep.
type persistRow struct {
	StaleKeys    int     `json:"stale_keys"`    // keys written after the snapshot
	RestoredKeys int     `json:"restored_keys"` // keys the restart loaded from disk
	RestoreMs    float64 `json:"restore_ms"`    // Open with a populated snapshot dir
	ConvergeMs   float64 `json:"converge_ms"`   // restart until digests match
	RepairBytes  int     `json:"repair_bytes"`  // served by the healthy replica
	WireBytes    int     `json:"wire_bytes"`    // healthy replica's total outbound
	SnapshotSize int     `json:"snapshot_size"` // bytes on disk across shard files
}

// persistReport is the BENCH_persist.json schema.
type persistReport struct {
	Keys      int          `json:"keys"`
	Shards    int          `json:"shards"`
	Engine    string       `json:"engine"`
	SyncEvery string       `json:"sync_every"`
	Rows      []persistRow `json:"rows"`
}

func runPersistBench(cfg persistBenchConfig) {
	if cfg.Keys <= 0 {
		cfg.Keys = 20000
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 64
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 5 * time.Millisecond
	}
	// Staleness sweep: a lossless restart, then 1%, 5%, and 20% of the
	// keyspace written after the snapshot.
	sweep := []int{0, cfg.Keys / 100, cfg.Keys / 20, cfg.Keys / 5}
	report := persistReport{
		Keys:      cfg.Keys,
		Shards:    cfg.Shards,
		Engine:    "delta",
		SyncEvery: cfg.SyncEvery.String(),
	}
	fmt.Printf("persist: crash-restart durability, %d keys, sync every %s\n",
		cfg.Keys, cfg.SyncEvery)
	fmt.Printf("%10s %14s %12s %12s %14s %14s\n",
		"stale", "restored", "restore", "converge", "repair", "snapshot")
	for _, stale := range sweep {
		row := persistPoint(cfg, stale)
		report.Rows = append(report.Rows, row)
		fmt.Printf("%10d %14d %12.1fms %12.1fms %14s %14s\n",
			row.StaleKeys, row.RestoredKeys, row.RestoreMs, row.ConvergeMs,
			fmtBytes(row.RepairBytes), fmtBytes(row.SnapshotSize))
	}
	if cfg.Out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatalf("persist: marshal: %v", err)
		}
		if err := os.WriteFile(cfg.Out, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("persist: write %s: %v", cfg.Out, err)
		}
		fmt.Printf("persist: wrote %s\n", cfg.Out)
	}
}

// persistPoint runs one kill-and-restart cycle at the given staleness.
func persistPoint(cfg persistBenchConfig, stale int) persistRow {
	dir, err := os.MkdirTemp("", "syncbench-persist-*")
	if err != nil {
		log.Fatalf("persist: tempdir: %v", err)
	}
	defer os.RemoveAll(dir)

	ids := [2]string{"n0", "n1"}
	var addrs [2]string
	var listeners [2]net.Listener
	for i := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("persist: listen: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	open := func(i int, ln net.Listener) *crdtsync.Store {
		opts := []crdtsync.Option{
			crdtsync.WithID(ids[i]),
			crdtsync.WithListener(ln),
			crdtsync.WithPeers(map[string]string{ids[1-i]: addrs[1-i]}),
			crdtsync.WithNodes(ids[:]),
			crdtsync.WithShards(cfg.Shards),
			// The plain delta engine never retransmits: everything the
			// dead replica misses must come back through the snapshot
			// and digest anti-entropy — the paths under measurement.
			crdtsync.WithEngine(crdtsync.EngineDelta),
			crdtsync.WithSyncEvery(cfg.SyncEvery),
			crdtsync.WithDigestEvery(2),
		}
		if i == 1 {
			opts = append(opts,
				crdtsync.WithSnapshotDir(dir),
				crdtsync.WithSnapshotEvery(time.Hour)) // explicit SnapshotNow below
		}
		st, err := crdtsync.Open(opts...)
		if err != nil {
			log.Fatalf("persist: open %s: %v", ids[i], err)
		}
		return st
	}
	s0, s1 := open(0, listeners[0]), open(1, listeners[1])
	defer s0.Close()

	// Stage the shared keyspace through the live mesh and snapshot it.
	for k := 0; k < cfg.Keys; k++ {
		s0.Set(keyName(k)).Add("v")
	}
	waitPersistConverged(s0, s1, cfg.Keys, "staging")
	if err := s1.SnapshotNow(); err != nil {
		log.Fatalf("persist: snapshot: %v", err)
	}
	snapSize := 0
	if entries, err := os.ReadDir(dir); err == nil {
		for _, ent := range entries {
			if info, err := ent.Info(); err == nil {
				snapSize += int(info.Size())
			}
		}
	}

	// The snapshot goes stale the way it does in production: more keys
	// arrive through the live mesh after the pass, fully delivered and
	// long gone from every peer queue and δ-buffer — then the crash
	// throws the replica's in-memory surplus away. What the restart is
	// missing is exactly the post-snapshot traffic, and the only path
	// that can bring it back is digest anti-entropy repair.
	for k := cfg.Keys; k < cfg.Keys+stale; k++ {
		s0.Set(keyName(k)).Add("v")
	}
	waitPersistConverged(s0, s1, cfg.Keys+stale, "divergence")
	s1.Close()
	base := s0.Stats()
	var ln1 net.Listener
	for i := 0; ; i++ {
		ln1, err = net.Listen("tcp", addrs[1])
		if err == nil {
			break
		}
		if i >= 200 {
			log.Fatalf("persist: re-listen %s: %v", addrs[1], err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	restoreStart := time.Now()
	s1 = open(1, ln1)
	restoreMs := float64(time.Since(restoreStart).Microseconds()) / 1000
	defer s1.Close()

	convergeStart := time.Now()
	waitPersistConverged(s0, s1, cfg.Keys+stale, "recovery")
	convergeMs := float64(time.Since(convergeStart).Microseconds()) / 1000
	after := s0.Stats()
	return persistRow{
		StaleKeys:    stale,
		RestoredKeys: s1.Stats().SnapshotRestoredKeys,
		RestoreMs:    restoreMs,
		ConvergeMs:   convergeMs,
		RepairBytes:  after.RepairBytes - base.RepairBytes,
		WireBytes:    after.WireBytes - base.WireBytes,
		SnapshotSize: snapSize,
	}
}

// waitPersistConverged polls until both stores hold want keys with equal
// digests, with a generous deadline — the benchmark measures speed, it
// must not hang on a regression.
func waitPersistConverged(s0, s1 *crdtsync.Store, want int, phase string) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if s0.NumKeys() == want && s1.NumKeys() == want && s0.Digest() == s1.Digest() {
			return
		}
		if time.Now().After(deadline) {
			log.Fatalf("persist: %s did not converge: %s holds %d, %s holds %d, want %d",
				phase, s0.ID(), s0.NumKeys(), s1.ID(), s1.NumKeys(), want)
		}
		time.Sleep(persistPollInterval)
	}
}

const persistPollInterval = 5 * time.Millisecond
