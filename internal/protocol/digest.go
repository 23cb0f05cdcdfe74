package protocol

import (
	"crdtsync/internal/metrics"
)

// DigestMsg is the advertisement of store-level digest anti-entropy
// between replicas of a sharded keyspace: Digests is the sender's
// per-shard digest vector (index = shard). The receiver compares it
// against its own shard digests and starts a drill (TreeMsg) on each
// shard that differs.
//
// Digests combine, in no order, a hash of each key of the shard with its
// state's canonical encoding, so two replicas holding the same shard
// contents always produce equal digests and a converged pair exchanges
// only the constant size advertisement — the near-constant heartbeat that
// replaces shipping state on idle keyspaces.
//
// Echo asks for the receiver's own vector back at once, plain: a store
// catching up with a neighbor (a third one stopped reaching it) advertises
// on every tick until the neighbor's digests match, and a neighbor that
// advertises on no schedule of its own would otherwise never say so. The
// answer never asks in turn.
type DigestMsg struct {
	Digests []uint64
	Echo    bool
	cost    metrics.Transmission
}

// Kind implements Msg.
func (m *DigestMsg) Kind() string { return "digest" }

// Cost implements Msg.
func (m *DigestMsg) Cost() metrics.Transmission { return m.cost }

// NewDigestMsg builds a DigestMsg with the standard accounting for an
// advertisement: one message, 8 bytes of metadata per shard digest, no
// payload.
func NewDigestMsg(digests []uint64) *DigestMsg {
	return &DigestMsg{Digests: digests, cost: metrics.Transmission{
		Messages:      1,
		MetadataBytes: 8 * len(digests),
	}}
}
