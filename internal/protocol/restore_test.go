package protocol_test

import (
	"testing"

	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// newKeyspace builds the per-object engine the store runs per shard.
func newKeyspace(inner protocol.Factory) *protocol.PerObject {
	return protocol.NewKeyspace(inner, func(string) workload.Datatype { return workload.GSetType{} },
		protocol.Config{ID: "a", Neighbors: []string{"b"}, Nodes: []string{"a", "b"}})
}

// TestRestoreObjectQuiescent pins the restore contract for both inner
// engines: the restored state is visible, but nothing is buffered for
// propagation — a restarted replica must not re-ship its keyspace.
func TestRestoreObjectQuiescent(t *testing.T) {
	factories := map[string]protocol.Factory{
		"delta": protocol.NewDeltaBPRR(),
		"acked": protocol.NewDeltaAcked(true, true),
	}
	for name, inner := range factories {
		t.Run(name, func(t *testing.T) {
			e := newKeyspace(inner)
			e.RestoreObject("s/k1", crdt.NewGSet("x", "y"))
			e.RestoreObject("s/k2", crdt.NewGSet("z"))
			if st := e.ObjectState("s/k1"); st == nil || !st.Equal(crdt.NewGSet("x", "y")) {
				t.Fatalf("restored state = %v", st)
			}
			if m := e.Memory(); m.BufferBytes != 0 {
				t.Errorf("restore buffered %d bytes for propagation, want 0", m.BufferBytes)
			}
			sent := 0
			e.Sync(func(string, protocol.Msg) { sent++ })
			if sent != 0 {
				t.Errorf("restored engine emitted %d messages on Sync, want 0", sent)
			}
		})
	}
}

// TestRestoreThenUpdatePropagates checks restore does not wedge the
// object: a local op after restore ships its delta normally, and the
// restored portion stays out of the wire traffic.
func TestRestoreThenUpdatePropagates(t *testing.T) {
	e := newKeyspace(protocol.NewDeltaBPRR())
	e.RestoreObject("s/k", crdt.NewGSet("old1", "old2", "old3"))
	e.LocalOp(workload.Op{Key: "s/k", Kind: workload.KindAdd, Elem: "new"})
	var sent []protocol.Msg
	e.Sync(func(_ string, m protocol.Msg) { sent = append(sent, m) })
	if len(sent) != 1 {
		t.Fatalf("messages = %d, want 1", len(sent))
	}
	if got := sent[0].Cost().Elements; got != 1 {
		t.Errorf("shipped %d elements, want only the new delta (1)", got)
	}
}
