package protocol

import (
	"crdtsync/internal/metrics"
)

// DigestMsg drives store-level digest anti-entropy between replicas of a
// sharded keyspace. It plays two roles, distinguished by which field is
// populated:
//
//   - An advertisement carries Digests, the sender's per-shard digest
//     vector (index = shard). The receiver compares it against its own
//     shard digests and replies with a request for the shards that differ.
//   - A request carries Want, the shard indices whose full contents the
//     sender asks for. The receiver answers with a ShardedMsg shipping
//     those shards in full (per-key δ-groups carrying whole object
//     states).
//
// Digests are computed over each shard's sorted keys and canonical state
// encodings, so two replicas holding the same shard contents always
// produce equal digests and a converged pair exchanges only the constant
// size advertisement — the near-constant heartbeat that replaces shipping
// state on idle keyspaces.
type DigestMsg struct {
	Digests []uint64
	Want    []uint32
	cost    metrics.Transmission
}

// Kind implements Msg.
func (m *DigestMsg) Kind() string { return "digest" }

// Cost implements Msg.
func (m *DigestMsg) Cost() metrics.Transmission { return m.cost }

// NewDigestMsg builds a DigestMsg with the standard accounting for an
// advertisement or request: one message, 8 bytes per shard digest and 4
// bytes per requested shard index of metadata, no payload.
func NewDigestMsg(digests []uint64, want []uint32) *DigestMsg {
	return &DigestMsg{Digests: digests, Want: want, cost: metrics.Transmission{
		Messages:      1,
		MetadataBytes: 8*len(digests) + 4*len(want),
	}}
}
