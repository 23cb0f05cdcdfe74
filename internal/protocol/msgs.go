package protocol

import (
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/vclock"
)

// Message constructors. The accounting of a message is a function of its
// content, so it is not part of the wire format: the engines that send a
// message and the decoder that rebuilds one (package codec, which reads
// DeltaMsg, AckedDeltaMsg, DigestMsg, TreeMsg and HelloMsg) call the same
// constructor and arrive at the same Cost(). The messages with no wire form
// — the full state, the per-object acknowledgement and the three at the
// bottom — are built here alone, by the engines that send them, and stay
// unexported. The three simulator-only messages account against the
// configured membership (Config.IDBytes, N-entry vectors whether or not an
// entry is zero — the paper's Figure 9 model).

// newStateMsg builds a stateMsg: a full state needs no metadata.
func newStateMsg(s lattice.State) *stateMsg {
	return &stateMsg{State: s, cost: stateCost(s, 0)}
}

// NewDeltaMsg builds a DeltaMsg. One sequence number per neighbor is the
// only metadata (8 bytes), the paper's "P" cost in Figure 9.
func NewDeltaMsg(d lattice.State) *DeltaMsg {
	return &DeltaMsg{Delta: d, cost: stateCost(d, 8)}
}

// NewAckedDeltaMsg builds an AckedDeltaMsg: 8 bytes of metadata per
// buffer sequence number the δ-group covers.
func NewAckedDeltaMsg(d lattice.State, seqs []uint64) *AckedDeltaMsg {
	return &AckedDeltaMsg{Delta: d, Seqs: seqs, cost: stateCost(d, 8*len(seqs))}
}

// newAckMsg builds an ackMsg: 8 bytes of metadata per acknowledged
// sequence number, no payload.
func newAckMsg(seqs []uint64, retry bool) *ackMsg {
	return &ackMsg{Seqs: seqs, Retry: retry, cost: metrics.Transmission{Messages: 1, MetadataBytes: 8 * len(seqs)}}
}

// newSBDigestMsg builds an sbDigestMsg accounted by the vector entries it
// carries.
func newSBDigestMsg(vec *vclock.VClock, matrix map[string]*vclock.VClock) *sbDigestMsg {
	cost := metrics.Transmission{Messages: 1, Elements: vec.Len(), MetadataBytes: vec.SizeBytes()}
	for _, v := range matrix {
		cost.Elements += v.Len()
		cost.MetadataBytes += v.SizeBytes()
	}
	return &sbDigestMsg{Vec: vec, Matrix: matrix, cost: cost}
}

// newSBDeltasMsg builds an sbDeltasMsg accounted by its deltas, plus one
// version pair of metadata per item.
func newSBDeltasMsg(items []sbItem) *sbDeltasMsg {
	cost := metrics.Transmission{Messages: 1}
	for _, it := range items {
		cost.Elements += it.Delta.Elements()
		cost.PayloadBytes += it.Delta.SizeBytes()
		cost.MetadataBytes += len(it.Dot.Actor) + 8
	}
	return &sbDeltasMsg{Items: items, cost: cost}
}

// newOpsMsg builds an opsMsg accounted by its operations, plus each one's
// dot and dependency vector as metadata.
func newOpsMsg(ops []taggedOp) *opsMsg {
	cost := metrics.Transmission{Messages: 1}
	for _, op := range ops {
		cost.Elements += op.Payload.Elements()
		cost.PayloadBytes += op.OpBytes
		cost.MetadataBytes += op.Dep.SizeBytes() + len(op.Dot.Actor) + 8
	}
	return &opsMsg{Ops: ops, cost: cost}
}
