package protocol

import (
	"crdtsync/internal/metrics"
)

// Merkle drill-down geometry. A shard's keyspace is partitioned into
// TreeLeaves hash buckets; interior levels group them TreeFanout at a
// time, so level L has TreeFanout^L nodes and level TreeDepth is the leaf
// level. Both replicas must agree on the geometry — node indices are wire
// metadata, exactly like shard indices — so these are protocol constants,
// not configuration. (An adaptive fanout would need the geometry carried
// on the advertisement; a ROADMAP follow-up.)
const (
	// TreeFanoutBits is log2 of the tree fanout.
	TreeFanoutBits = 4
	// TreeFanout is the number of children per interior node.
	TreeFanout = 1 << TreeFanoutBits
	// TreeDepth is the leaf level: levels run 1..TreeDepth below the
	// per-shard root digest.
	TreeDepth = 3
	// TreeLeaves is the number of leaf buckets per shard.
	TreeLeaves = 1 << (TreeFanoutBits * TreeDepth)
)

// TreeNodesAt returns the node count at a level (level 0 is the root).
func TreeNodesAt(level int) int {
	return 1 << (TreeFanoutBits * level)
}

// TreeLeafSpan returns how many leaves one node at the given level covers.
func TreeLeafSpan(level int) uint32 {
	return 1 << (TreeFanoutBits * (TreeDepth - level))
}

// TreeMsg is one step of a Merkle drill-down repairing a single diverged
// shard: instead of pulling the whole shard on a root-digest mismatch,
// the requester walks the shard's hash tree level by level, exchanging
// interior-node hashes until it has isolated the diverged leaf ranges,
// and then pulls only those ranges. One message plays three roles,
// distinguished by which field is populated (all indices are node indices
// at Level):
//
//   - Query asks the receiver for its hashes of those nodes; the receiver
//     answers with a Nodes/Hashes message at the same level.
//   - Nodes/Hashes answer a query (parallel slices). The requester
//     compares them against its own node hashes and either queries the
//     differing nodes' children (Level+1) or, at the leaf level, sends a
//     Want.
//   - Want asks the receiver to ship the keys in those nodes' hash
//     ranges, in full, as per-key δ-groups — the range-limited form of
//     the full-shard repair ship.
//
// The exchange is log-depth: TreeDepth query/answer rounds, each carrying
// at most TreeFanout hashes per diverged node, then one range ship whose
// size is proportional to the diverged ranges — not to the shard.
type TreeMsg struct {
	Shard  uint32
	Level  uint8
	Query  []uint32
	Nodes  []uint32
	Hashes []uint64
	Want   []uint32
	cost   metrics.Transmission
}

// Kind implements Msg.
func (m *TreeMsg) Kind() string { return "tree" }

// Cost implements Msg.
func (m *TreeMsg) Cost() metrics.Transmission { return m.cost }

// NewTreeMsg builds a TreeMsg with the standard accounting for a
// drill-down message: one message, 4 bytes per node index, 8 bytes per
// hash, plus the fixed shard/level header — all metadata, no payload.
// Nodes and Hashes must be the same length.
func NewTreeMsg(shard uint32, level uint8, query, nodes []uint32, hashes []uint64, want []uint32) *TreeMsg {
	return &TreeMsg{Shard: shard, Level: level, Query: query, Nodes: nodes, Hashes: hashes, Want: want,
		cost: metrics.Transmission{
			Messages:      1,
			MetadataBytes: 5 + 4*(len(query)+len(nodes)+len(want)) + 8*len(hashes),
		}}
}
