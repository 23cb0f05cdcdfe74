package protocol

// NewAckMsg builds the acked engine's per-object acknowledgement for the
// external tests, which hand it to the engines directly.
func NewAckMsg(seqs []uint64) *AckMsg { return newAckMsg(seqs) }

// Flusher is what the standalone delta engines and a keyspace share
// besides Engine: the first-transmission pass (PerObject.Flush) and the
// two questions a store asks before a pass. The tests drive both kinds
// through it.
type Flusher interface {
	Flush(send Sender)
	Unsent() bool
	Waiting() bool
}
