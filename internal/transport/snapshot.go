package transport

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/lattice"
	"crdtsync/internal/protocol"
)

// This file is the durability layer: a background snapshotter that
// serializes each shard's objects through the canonical codec to one
// atomic-rename file per shard, and the restore path StartStore runs
// before joining the mesh. Recovery needs no new protocol — a replica
// restored from a stale snapshot is exactly the divergence digest
// anti-entropy and the Merkle drill-down already repair, so repair cost
// after a crash is proportional to snapshot staleness, not keyspace
// size.

// defaultSnapshotEvery is the snapshot period when SnapshotDir is set
// without an explicit cadence.
const defaultSnapshotEvery = 10 * time.Second

// snapshotPath names one shard's snapshot file.
func snapshotPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.snap", shard))
}

// snapshotLoop writes a snapshot pass every SnapshotEvery until Close.
func (s *Store) snapshotLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.SnapshotEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopping:
			return
		case <-ticker.C:
			s.SnapshotNow() // an I/O error retries next tick
		}
	}
}

// SnapshotNow runs one snapshot pass: each shard whose content digest
// moved since its last snapshot is serialized under its own lock and
// written to a temp file renamed into place, one shard at a time — the
// sync loop and inbound deliveries only ever wait on the single shard
// currently being encoded, never on I/O (the write happens after the
// lock is released). Returns the first write error; the pass still
// visits every shard. Note Close does not snapshot: an explicit
// SnapshotNow before a planned shutdown is what makes the restart
// lossless, a crash restores the last periodic pass and repairs the gap.
func (s *Store) SnapshotNow() error {
	if s.cfg.SnapshotDir == "" {
		return errors.New("transport: store has no SnapshotDir")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	var firstErr error
	written, bytes := 0, 0
	for i, sh := range s.shards {
		data, digest, changed := s.encodeShardSnapshot(i, sh)
		if !changed {
			continue
		}
		if err := writeFileAtomic(snapshotPath(s.cfg.SnapshotDir, i), data); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.snapLast[i] = digest
		written++
		bytes += len(data)
	}
	if written > 0 {
		s.statsMu.Lock()
		s.stats.SnapshotsWritten += written
		s.stats.SnapshotBytes += bytes
		s.statsMu.Unlock()
	}
	return firstErr
}

// encodeShardSnapshot serializes one shard under a single lock hold, so
// the digest recorded against snapLast and the contents on disk are the
// same cut. changed is false when the shard's digest equals its last
// written snapshot's — nothing to do. snapLast starts at zero, which is
// the digest of the empty shard: a shard nothing has been written to gets
// no file, and no file is what restores as the empty shard.
func (s *Store) encodeShardSnapshot(i int, sh *shard) (data []byte, digest uint64, changed bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d := sh.digestLocked()
	if d == s.snapLast[i] {
		return nil, d, false
	}
	w := codec.NewSnapshotWriter(i, len(s.shards), sh.engine.NumKeys())
	sh.engine.Scan("", func(k string, st lattice.State) bool {
		w.Add(k, st)
		return true
	})
	return w.Bytes(), d, true
}

// writeFileAtomic writes data to a sibling temp file, syncs it, and
// renames it over path, so a crash mid-write leaves either the old
// snapshot or the new one — never a torn file (and a torn rename target
// would still be caught by the per-frame checksums on restore).
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// restoreSnapshots loads every readable, valid snapshot file from
// SnapshotDir into the engines. Called from StartStore before the
// listener starts delivering, so no locks are contended and the first
// digest advertisement already describes the restored keyspace.
//
// Each file is two-phase: fully decoded (every frame checksummed, the
// record count checked against the manifest) into memory first, applied
// only if the whole file is valid — a corrupt or truncated file
// contributes nothing, exactly as if that shard had never been
// snapshotted, and never panics or partially applies. Keys are re-routed
// by hash rather than trusting the file's recorded shard index, so a
// store restarted with a different shard count still restores everything.
func (s *Store) restoreSnapshots() {
	entries, err := os.ReadDir(s.cfg.SnapshotDir)
	if err != nil {
		return // fresh directory; MkdirAll just created it
	}
	type record struct {
		key string
		st  lattice.State
	}
	restored, corrupt := 0, 0
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || filepath.Ext(name) != ".snap" {
			continue // temp files and strangers are not snapshots
		}
		data, err := os.ReadFile(filepath.Join(s.cfg.SnapshotDir, name))
		if err != nil {
			corrupt++
			continue
		}
		var recs []record
		if _, err := codec.DecodeSnapshot(data, func(key string, st lattice.State) error {
			recs = append(recs, record{key, st})
			return nil
		}); err != nil {
			corrupt++
			continue
		}
		for _, r := range recs {
			sh := s.shardOf(r.key)
			if or, ok := sh.engine.(protocol.ObjectRestorer); ok {
				sh.mu.Lock()
				or.RestoreObject(r.key, r.st)
				sh.touched()
				sh.mu.Unlock()
			}
		}
		restored += len(recs)
	}
	if restored > 0 || corrupt > 0 {
		s.statsMu.Lock()
		s.stats.SnapshotRestoredKeys += restored
		s.stats.SnapshotRestoreErrors += corrupt
		s.statsMu.Unlock()
	}
}
