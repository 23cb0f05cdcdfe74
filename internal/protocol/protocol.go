// Package protocol implements every synchronization protocol evaluated in
// the paper (§IV–§V):
//
//   - state-based synchronization (full-state shipping);
//   - classic delta-based synchronization (Algorithm 1, plain lines);
//   - delta-based with the BP (avoid back-propagation) and RR (remove
//     redundant state in received δ-groups) optimizations, in any
//     combination (Algorithm 1, highlighted lines);
//   - Scuttlebutt anti-entropy and its garbage-collecting variant
//     Scuttlebutt-GC;
//   - operation-based synchronization over a store-and-forward causal
//     broadcast middleware.
//
// Engines are single-goroutine event handlers driven by package netsim:
// LocalOp applies workload updates, Sync emits periodic messages, and
// Deliver handles inbound messages (possibly replying, as Scuttlebutt's
// push-pull does).
package protocol

import (
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/workload"
)

// Sender transmits a message to a neighbor; provided by the simulator.
type Sender func(to string, m Msg)

// Msg is a protocol message with precomputed transmission accounting.
type Msg interface {
	// Kind names the message type for logs and tests.
	Kind() string
	// Cost returns the transmission accounting of this message.
	Cost() metrics.Transmission
}

// Config carries the per-node construction parameters shared by all
// engines.
type Config struct {
	// ID is this node's identifier.
	ID string
	// Neighbors lists adjacent node ids (sorted).
	Neighbors []string
	// Nodes lists the full membership (sorted); vector-based protocols
	// size their metadata against it.
	Nodes []string
	// Datatype adapts the replicated CRDT.
	Datatype workload.Datatype
	// IDBytes is the accounting size of one node identifier in metadata
	// (the paper's Figure 9 uses 20-byte ids). Zero means "use the actual
	// id length".
	IDBytes int
	// Reach, when non-nil, is what the neighbors have announced they reach
	// themselves. The acked delta engine withholds a forward to a neighbor
	// the entry's origin reaches, and Reach records that it did; under
	// PruneOnReceipt the plain one holds it back instead, when that
	// neighbor orders before this node, and withholds nothing.
	Reach *Reach
	// PruneOnReceipt has the delta engines take a δ-group that arrives
	// from a neighbor as proof that the neighbor holds every buffered entry
	// the group covers, redundant or not (core.Buffer.MarkHeld): no later
	// send pass ships such an entry to it, as BP ships none back to its
	// origin. The plain engine also holds the forward of an entry back, for
	// each neighbor that orders before this node and that the entry's
	// origin reaches, until its second tick after buffering the entry or
	// until its owner ends the hold (PerObject.EndHolds), so that of two
	// receivers of one δ-group the first's forward prunes the second's.
	// Algorithm 1 prunes on the origin alone and forwards at once, so only
	// the store's core sets it; the engines netsim and the paper's figures
	// run stay exact.
	PruneOnReceipt bool
}

// idBytes returns the accounting size of one id.
func (c Config) idBytes() int {
	if c.IDBytes > 0 {
		return c.IDBytes
	}
	if len(c.Nodes) > 0 {
		return len(c.Nodes[0])
	}
	return len(c.ID)
}

// vectorBytes returns the accounting size of one full membership vector.
func (c Config) vectorBytes() int {
	return len(c.Nodes) * (c.idBytes() + 8)
}

// Engine is one node's protocol instance.
type Engine interface {
	// ID returns the node identifier.
	ID() string
	// State returns the local lattice state (not a copy).
	State() lattice.State
	// LocalOp applies one workload update locally.
	LocalOp(op workload.Op)
	// Sync runs one periodic synchronization step, emitting messages.
	Sync(send Sender)
	// Deliver handles one inbound message; replies go through send.
	Deliver(from string, m Msg, send Sender)
	// Memory reports the current memory footprint.
	Memory() metrics.Memory
}

// Factory builds one engine per node; each protocol provides one.
type Factory func(cfg Config) Engine

// stateCost builds the accounting for shipping a bare lattice state with
// the given metadata byte count.
func stateCost(s lattice.State, metadataBytes int) metrics.Transmission {
	return metrics.Transmission{
		Messages:      1,
		Elements:      s.Elements(),
		PayloadBytes:  s.SizeBytes(),
		MetadataBytes: metadataBytes,
	}
}
