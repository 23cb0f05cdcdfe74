package protocol

import (
	"hash/maphash"

	"crdtsync/internal/lattice"
)

// This file is the protocol side of crash-restart durability: how a
// snapshot's states re-enter the engines on startup. Restoring is not
// delivering — a delivered δ-group is buffered for onward propagation,
// which on restart would re-ship the entire restored keyspace to peers
// that already hold it. Restore merges state and nothing else; the
// divergence a stale snapshot leaves behind (in either direction) is
// exactly what the store's digest anti-entropy and Merkle drill-down
// repair, so no new wire protocol is involved.

// ObjectRestorer is implemented by multi-object engines that can adopt
// persisted state on startup: one (key, state) record from a snapshot
// file, joined into the object's state without buffering it, assigning
// sequence numbers, or creating ack obligations.
type ObjectRestorer interface {
	RestoreObject(key string, st lattice.State)
}

// RestoreObject implements ObjectRestorer. The object is created on demand
// (datatype from the key, as everywhere) and the snapshot state joins its
// state directly, bypassing the δ-buffer. Restored keys are deliberately
// not marked active, only stale: a freshly restored store has nothing new
// to say, and leaving the keyspace quiescent keeps restart cost
// O(changed), not O(keyspace) — the same property Sync's active set
// provides in steady state.
func (e *perObject) RestoreObject(key string, st lattice.State) {
	id := obj(e, maphash.String(keySeed, key), key)
	e.mutated(id)
	e.ix.recs[id].x.Merge(st)
	e.shareKey(id)
}
