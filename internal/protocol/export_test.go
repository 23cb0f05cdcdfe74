package protocol

import "slices"

// AckMsg is the acked engine's per-object acknowledgement, which the
// external tests hand the engines directly and read in their replies.
type AckMsg = ackMsg

// NewAckMsg builds an AckMsg with its accounting, as the acked engine
// does.
func NewAckMsg(seqs []uint64) *AckMsg { return newAckMsg(seqs, false) }

// Flusher is what the standalone delta engines and a keyspace share
// besides Engine: the first-transmission pass (Flush) and the two
// questions a store asks before a pass. The tests drive both kinds through
// it.
type Flusher interface {
	Flush(send Sender)
	Unsent() bool
	Waiting() bool
}

// BatchOf builds a BatchMsg with its accounting, as Sync does.
var BatchOf = batchOf

// Flush is a standalone engine's first-transmission pass, its δ-groups
// sent as Sync sends them: first transmissions only, and no tick passes.
func (e *object) Flush(send Sender) {
	if e.Unsent() {
		e.ship(send, false)
	}
}

// Flush is a keyspace's first-transmission pass (Pass), its δ-groups sent
// as Sync sends them.
func (e *PerObject) Flush(send Sender) {
	e.Pass(false, e.b.emit)
	e.b.flush(send)
}

// EndHolds ends a standalone engine's holds on forwards toward the
// neighbor to, or toward every neighbor for the empty id, as
// PerObject.EndHolds does a keyspace's, and reports whether that left a
// forward due.
func EndHolds(e Engine, to string) bool {
	o := e.(*object)
	mask := ^uint64(0)
	if to != "" {
		mask = 1 << slices.Index(o.alg.config().cfg.Neighbors, to)
	}
	return o.alg.release(&o.buf, mask)
}

// ResendAfter is PerObject.ResendAfter for a standalone engine.
func ResendAfter(e Engine, waits []uint8) { e.(*object).alg.resendAfter(waits) }

// SpuriousRetransmits is PerObject.SpuriousRetransmits for a standalone
// engine.
func SpuriousRetransmits(e Engine) uint64 {
	_, spurious := e.(*object).alg.retransmits()
	return spurious
}
