package protocol

import (
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/vclock"
)

// Message constructors. The accounting of a message is a function of its
// content, so it is not part of the wire format: the engines that send a
// message and the decoder that rebuilds it (package codec) call the same
// constructor and arrive at the same Cost(). The three simulator-only
// messages at the bottom are the exception on the sending side: their
// engines account against the configured membership (Config.IDBytes,
// N-entry vectors whether or not an entry is zero — the paper's Figure 9
// model), which a receiver cannot know, so a decoded one reports the
// sizes of what it actually carries.

// NewStateMsg builds a StateMsg: a full state needs no metadata.
func NewStateMsg(s lattice.State) *StateMsg {
	return &StateMsg{State: s, cost: stateCost(s, 0)}
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

// NewAckMsg builds an AckMsg: 8 bytes of metadata per acknowledged
// sequence number, no payload.
func NewAckMsg(seqs []uint64) *AckMsg {
	return &AckMsg{Seqs: seqs, cost: metrics.Transmission{Messages: 1, MetadataBytes: 8 * len(seqs)}}
}

// NewSBDigestMsg builds an SBDigestMsg accounted by the vector entries it
// carries.
func NewSBDigestMsg(vec *vclock.VClock, matrix map[string]*vclock.VClock) *SBDigestMsg {
	cost := metrics.Transmission{Messages: 1, Elements: vec.Len(), MetadataBytes: vec.SizeBytes()}
	for _, v := range matrix {
		cost.Elements += v.Len()
		cost.MetadataBytes += v.SizeBytes()
	}
	return &SBDigestMsg{Vec: vec, Matrix: matrix, cost: cost}
}

// NewSBDeltasMsg builds an SBDeltasMsg accounted by its deltas, plus one
// version pair of metadata per item.
func NewSBDeltasMsg(items []SBItem) *SBDeltasMsg {
	cost := metrics.Transmission{Messages: 1}
	for _, it := range items {
		cost.Elements += it.Delta.Elements()
		cost.PayloadBytes += it.Delta.SizeBytes()
		cost.MetadataBytes += len(it.Dot.Actor) + 8
	}
	return &SBDeltasMsg{Items: items, cost: cost}
}

// NewOpsMsg builds an OpsMsg accounted by its operations, plus each one's
// dot and dependency vector as metadata.
func NewOpsMsg(ops []TaggedOp) *OpsMsg {
	cost := metrics.Transmission{Messages: 1}
	for _, op := range ops {
		cost.Elements += op.Payload.Elements()
		cost.PayloadBytes += op.OpBytes
		cost.MetadataBytes += op.Dep.SizeBytes() + len(op.Dot.Actor) + 8
	}
	return &OpsMsg{Ops: ops, cost: cost}
}
