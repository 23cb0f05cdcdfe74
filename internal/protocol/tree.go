package protocol

import (
	"crdtsync/internal/metrics"
)

// Merkle drill-down geometry. A shard's keyspace is partitioned into
// TreeLeaves hash buckets; interior levels group them TreeFanout at a
// time, so level L has TreeFanout^L nodes, level 0 is the root (the whole
// shard) and level TreeDepth is the leaf level. Both replicas must agree on
// the geometry — node indices are wire metadata, exactly like shard
// indices — so these are protocol constants, not configuration. (An
// adaptive fanout would need the geometry carried on the advertisement; a
// ROADMAP follow-up.)
const (
	// TreeFanoutBits is log2 of the tree fanout.
	TreeFanoutBits = 4
	// TreeFanout is the number of children per interior node.
	TreeFanout = 1 << TreeFanoutBits
	// TreeDepth is the leaf level: levels run 0..TreeDepth from the root.
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

// TreeMsg is one step of the drill that repairs a diverged shard. Both
// ends of a drill speak it and both run the same step on receiving one;
// Nodes are node indices at Level whose contents the two ends disagree on
// (level 0, node 0 is the whole shard), and which of two roles the message
// plays shows in Hashes:
//
//   - A hash push carries TreeFanout Hashes per node: the sender's hashes
//     of each node's children, in child order. The receiver compares them
//     with its own and either pushes its hashes of the differing children's
//     children (Level+1), or stops.
//   - A close carries no Hashes and travels as the last item of its shard
//     in a sharded frame, after the sender's states for the keys of those
//     ranges (ordinary per-key δ-groups). With Nodes it is the stopping
//     side's half of the paper's state-driven synchronisation: the
//     receiver merges the states and answers, for every key it holds in
//     the ranges, with Δ(mine, theirs) — what the sender provably lacks —
//     followed by a close without Nodes, which ends the drill. The answer
//     is always sent, empty when nothing is owed — as is a bare close
//     without Nodes to a push whose hashes all match, where the drill
//     ends with nothing to exchange.
//
// A drill is one frame per level, alternating ends, then the two closes;
// either end stops descending as soon as shipping its side of the
// differing ranges costs less than hashing them one level further.
type TreeMsg struct {
	Shard  uint32
	Level  uint8
	Nodes  []uint32
	Hashes []uint64
	cost   metrics.Transmission
}

// Kind implements Msg.
func (m *TreeMsg) Kind() string { return "tree" }

// Cost implements Msg.
func (m *TreeMsg) Cost() metrics.Transmission { return m.cost }

// NewTreeMsg builds a TreeMsg with the standard accounting for a drill
// message: one message, 4 bytes per node index, 8 bytes per hash, plus the
// fixed shard/level header — all metadata, no payload. Hashes is empty or
// TreeFanout per node.
func NewTreeMsg(shard uint32, level uint8, nodes []uint32, hashes []uint64) *TreeMsg {
	return &TreeMsg{Shard: shard, Level: level, Nodes: nodes, Hashes: hashes,
		cost: metrics.Transmission{
			Messages:      1,
			MetadataBytes: 5 + 4*len(nodes) + 8*len(hashes),
		}}
}
