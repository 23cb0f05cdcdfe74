package protocol

// NewAckMsg builds the acked engine's per-object acknowledgement for the
// external tests, which hand it to the engines directly.
func NewAckMsg(seqs []uint64) *AckMsg { return newAckMsg(seqs) }
