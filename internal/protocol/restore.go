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

// Restorer is implemented by engines that can adopt persisted state on
// startup. Restore joins st into the local state without buffering it,
// assigning sequence numbers, or creating ack obligations.
type Restorer interface {
	Restore(st lattice.State)
}

// ObjectRestorer is the keyed counterpart for multi-object engines: one
// (key, state) record from a snapshot file, adopted quiescently.
type ObjectRestorer interface {
	RestoreObject(key string, st lattice.State)
}

// Restore implements Restorer: the snapshot state joins the local state
// directly, bypassing the δ-buffer.
func (e *deltaBased) Restore(st lattice.State) { e.x.Merge(st) }

// Restore implements Restorer: the snapshot state joins the local state
// directly, bypassing the acked buffer and its sequence space.
func (e *deltaAcked) Restore(st lattice.State) { e.x.Merge(st) }

// dropSender swallows replies an engine emits during a fallback restore
// delivery; there is no peer to reply to at startup.
var dropSender Sender = func(string, Msg) {}

// RestoreObject implements ObjectRestorer. The object's engine is
// created on demand (datatype from the key, as everywhere) and restored
// through its Restorer when it has one. Restored keys are deliberately
// not marked active, only stale: a freshly restored store has nothing new
// to say, and leaving the keyspace quiescent keeps restart cost
// O(changed), not O(keyspace) — the same property Sync's active set
// provides in steady state.
func (e *perObject) RestoreObject(key string, st lattice.State) {
	id := obj(e, maphash.String(keySeed, key), key)
	e.mutated(id)
	eng := e.ix.recs[id].eng
	if r, ok := eng.(Restorer); ok {
		r.Restore(st)
		return
	}
	// An engine without a restore path adopts the state as an inbound
	// full-state δ-group — correct (idempotent join) but buffered, so it
	// may be propagated once before acks or clears retire it.
	eng.Deliver("", NewDeltaMsg(st), dropSender)
}
