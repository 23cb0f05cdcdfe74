package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"crdtsync"
	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
)

// checkOracle compares every replica, object by object, with the
// sequential join of everything the generator emitted for this cluster —
// the preload, the part's n window updates, a closed loop's probes, the
// restart phase's keys — and the replicas' digests with each other. Each
// differing object is one failed operation.
func (r *result) checkOracle(c *cluster, p part, n, keys int) {
	s := r.spec
	want := newExpected()
	g := preloadGen(r.seed, s)
	for i := 0; i < s.preload; i++ {
		want.apply(g.preloadOp(i))
	}
	g = windowGen(p.seed, s)
	for i := 0; i < n; i++ {
		want.apply(g.next())
	}
	if !s.openLoop {
		g = probeGen()
		for i := 0; i < quietProbes; i++ {
			want.apply(g.next())
		}
	}
	if s.restart && p.last {
		g = restartGen(r.seed, s)
		for i := 0; i < s.restartKeys; i++ {
			want.apply(g.next())
		}
	}
	if want.keys() != keys {
		r.oracleBad++
		r.fail(1, "oracle: the run waited for %d objects per replica, the generator made %d", keys, want.keys())
	}
	for i, st := range c.stores {
		bad, first := diffStore(st, want)
		if bad > 0 {
			r.oracleBad += bad
			r.fail(bad, "oracle: replica %d differs on %d objects, first %s", i, bad, first)
		}
	}
	if !digestsEqual(c.stores) {
		r.oracleBad++
		r.fail(1, "oracle: digests differ after the run")
	}
}

// diffStore counts the objects of st that differ from want (missing and
// unexpected ones included) and names the first.
func diffStore(st *crdtsync.Store, want *expected) (bad int, first string) {
	note := func(key string) {
		if bad == 0 {
			first = key
		}
		bad++
	}
	seen := 0
	st.Scan("", func(key string, state crdtsync.State) bool {
		seen++
		ok := false
		switch v := state.(type) {
		case *crdt.GCounter:
			n, found := want.counters[key]
			ok = found && v.Value() == n
		case *crdt.GSet:
			elems, found := want.sets[key]
			ok = found && v.Len() == len(elems)
			for e := range elems {
				ok = ok && v.Contains(e)
			}
		case *lattice.Map:
			val, found := want.fields[key]
			reg, isReg := v.Get(key).(*crdt.LWWRegister)
			ok = found && isReg && reg.Value() == val
		}
		if !ok {
			note(key)
		}
		return true
	})
	if missing := want.keys() - seen; missing > 0 {
		// Every object seen was looked up in want, so a shortfall means
		// expected objects the replica does not hold.
		for i := 0; i < missing; i++ {
			note(fmt.Sprintf("(%d expected objects missing)", missing))
		}
	}
	return bad, first
}

// staleAtRestart restores a copy of the snapshot into a peerless store —
// exactly the state the restarted replica begins from — and sums the
// canonical size (key + encoded state) of the objects on which it differs
// from ref, a converged survivor. That is the least a repair must ship.
func staleAtRestart(snapDir, outDir string, ref *crdtsync.Store) (keys, size int, err error) {
	dir, err := os.MkdirTemp(outDir, "stale-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	entries, err := os.ReadDir(snapDir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(snapDir, e.Name()))
		if err != nil {
			return 0, 0, err
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			return 0, 0, err
		}
	}
	old, err := crdtsync.Open(crdtsync.WithShards(numShards), crdtsync.WithSnapshotDir(dir))
	if err != nil {
		return 0, 0, err
	}
	defer old.Close()
	var cur, was []byte
	ref.Scan("", func(key string, st crdtsync.State) bool {
		cur = codec.AppendState(cur[:0], st)
		was = was[:0]
		old.View(key, func(st crdtsync.State) { was = codec.AppendState(was, st) })
		if !bytes.Equal(cur, was) {
			keys++
			size += len(key) + len(cur)
		}
		return true
	})
	return keys, size, nil
}

// statsDelta subtracts the counters a window starts with from the ones it
// ends with. Peer and worker breakdowns are subtracted entry by entry.
func statsDelta(end, start crdtsync.Stats) crdtsync.Stats {
	d := end
	d.Frames -= start.Frames
	d.WireBytes -= start.WireBytes
	d.DigestFrames -= start.DigestFrames
	d.PiggybackedDigests -= start.PiggybackedDigests
	d.SplitFrames -= start.SplitFrames
	d.OversizedDropped -= start.OversizedDropped
	d.WantShards -= start.WantShards
	d.RepairShards -= start.RepairShards
	d.DedupedWants -= start.DedupedWants
	d.TreeRounds -= start.TreeRounds
	d.RepairRanges -= start.RepairRanges
	d.RepairBytes -= start.RepairBytes
	d.SnapshotsWritten -= start.SnapshotsWritten
	d.SnapshotBytes -= start.SnapshotBytes
	d.WatchDropped -= start.WatchDropped
	d.Sent.Messages -= start.Sent.Messages
	d.Sent.Elements -= start.Sent.Elements
	d.Sent.PayloadBytes -= start.Sent.PayloadBytes
	d.Sent.MetadataBytes -= start.Sent.MetadataBytes
	d.SyncWorkerBusyNs = append([]int64(nil), end.SyncWorkerBusyNs...)
	for i, v := range start.SyncWorkerBusyNs {
		d.SyncWorkerBusyNs[i] -= v
	}
	d.SyncWorkerShards = append([]uint64(nil), end.SyncWorkerShards...)
	for i, v := range start.SyncWorkerShards {
		d.SyncWorkerShards[i] -= v
	}
	d.Peers = make(map[string]crdtsync.PeerStats, len(end.Peers))
	for id, e := range end.Peers {
		s := start.Peers[id]
		e.Enqueued -= s.Enqueued
		e.EnqueuedBytes -= s.EnqueuedBytes
		e.Dropped -= s.Dropped
		e.DroppedBytes -= s.DroppedBytes
		e.Coalesced -= s.Coalesced
		e.Reconnects -= s.Reconnects
		d.Peers[id] = e
	}
	return d
}
