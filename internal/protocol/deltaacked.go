package protocol

import (
	"slices"

	"crdtsync/internal/core"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
)

// AckedDeltaMsg is a δ-group tagged with the buffer sequence numbers it
// covers, so the receiver can acknowledge them.
type AckedDeltaMsg struct {
	Delta lattice.State
	Seqs  []uint64
	cost  metrics.Transmission
}

// Kind implements Msg.
func (m *AckedDeltaMsg) Kind() string { return "delta-acked" }

// Cost implements Msg.
func (m *AckedDeltaMsg) Cost() metrics.Transmission { return m.cost }

// AckMsg acknowledges received δ-buffer entries.
type AckMsg struct {
	Seqs []uint64
	cost metrics.Transmission
}

// Kind implements Msg.
func (m *AckMsg) Kind() string { return "ack" }

// Cost implements Msg.
func (m *AckMsg) Cost() metrics.Transmission { return m.cost }

// maxRetransmitGap caps the doubling of the gap between two sends of an
// unacknowledged entry, in ticks: an entry is sent again 1, 2 and 4
// ticks after the send before, then every 8. On a lossless link a gap is
// seldom used up (an ack takes a round trip plus at most half a tick, the
// longest a store holds one for a frame to ride), and the doubling is what keeps a slow or absent peer from being
// re-sent everything in flight on every tick. The cap only shows in the
// tail: a 3-store mesh, 3000 keys, 15 ms ticks, five seeds each — at 20%
// frame loss caps 1 to 32 are indistinguishable (converged within one
// 50 ms poll of the last write, 5.9–7.0 elements per update); at 50% the
// last write converges 0.10–0.41 s later with the cap at 8, 0.15–0.61 s
// at 16, 0.10–0.91 s at 64, for the same 11–16 elements per update.
const maxRetransmitGap = 8

// deltaAcked is the lossy-channel variant of delta-based synchronization
// the paper sketches in §IV: instead of clearing the δ-buffer after every
// synchronization step, each entry carries a unique sequence number,
// receivers acknowledge, and an entry is dropped once every neighbor that
// must receive it has acknowledged it. Convergence therefore survives
// message loss, which the clear-after-send algorithm does not.
//
// Sending an entry for the first time and sending it again are separate
// decisions, as in Almeida, Shoker and Baquero's δ-buffer anti-entropy:
// Flush ships what has never been sent; Sync — the tick — does that too,
// and re-sends an entry only once a full tick has gone by since it was
// last sent without every ack arriving, then after 2, 4, … ticks
// (maxRetransmitGap). The gaps are counted in Sync calls, so a simulator
// or a test that drives Sync by hand needs no clock.
//
// BP and RR compose with acknowledgments exactly as in Algorithm 1, and BP
// extends from the neighbor an entry came from to the neighbors that one
// says it delivers to itself (owed). An acknowledgment marks the entry held
// by its sender (core.Entry.Held), and so, under Config.PruneOnReceipt,
// does a neighbor's δ-group that covers it.
//
// The buffer is the plain engine's, ascending by seq: each entry carries
// its seq and resend schedule besides. It is nil whenever it is empty: the
// ack that retires the last entry releases the backing array with it, so
// an idle object keeps no reference to a δ-group it has shipped.
type deltaAcked struct {
	deltaConfig
	// nextSeq is the last sequence number handed out, to an entry of any
	// object this numbers: the objects of a keyspace draw from one counter,
	// so no object reuses a seq, not even once its buffer has emptied and
	// been released with everything else it knew about its entries.
	nextSeq uint64
	// resent counts re-sends, over every object this runs.
	resent uint64
}

// NewDeltaAcked returns the acknowledgment-based delta engine factory with
// the given optimizations.
func NewDeltaAcked(bp, rr bool) Factory {
	return func(cfg Config) Engine {
		return newObject(&deltaAcked{deltaConfig: deltaConfig{cfg: cfg, bp: bp, rr: rr}})
	}
}

func (e *deltaAcked) store(x lattice.State, b *core.Buffer, s lattice.State, origin string) {
	x.Merge(s)
	if e.bp {
		e.cfg.Reach.withhold(origin)
	}
	entry := core.Entry{Delta: s, Origin: origin}
	if !entry.Pending(len(e.cfg.Neighbors), e.owed) {
		// No neighbor ever needs this entry — e.g. its origin is the
		// only neighbor under BP or reaches every other one itself, or
		// the node has no neighbors at all. Buffering it would leak:
		// nothing sends it, so no ack could ever prune it.
		return
	}
	e.nextSeq++
	entry.Seq = e.nextSeq
	b.Push(entry)
}

func (e *deltaAcked) retransmits() uint64 { return e.resent }

// release ends nothing: the acked engine withholds a forward on a
// neighbor's word (owed) and holds none.
func (e *deltaAcked) release(*core.Buffer, uint64) bool { return false }

// ship marks the entries due on this pass — those never sent, and on a
// tick those whose wait runs out — then sends each neighbor the join of
// the due entries it is owed and does not hold. An entry is sent again
// one full tick after its first send, then 2, 4, … ticks after the one
// before (maxRetransmitGap): Gap is the last wait armed, Wait the ticks
// left of it.
func (e *deltaAcked) ship(b *core.Buffer, send Sender, tick bool) {
	n := len(e.cfg.Neighbors)
	if tick && e.cfg.Reach != nil {
		// An origin may have announced since the entry was buffered the
		// last neighbor that had not acknowledged it.
		b.Drop(n, e.owed)
	}
	entries := b.Entries()
	due := false
	for k := range entries {
		entry := &entries[k]
		switch {
		case entry.Due: // never sent
			entry.Gap, entry.Wait = 1, 1
			if !tick {
				// Sent between two ticks: the next tick does not
				// complete a full one since this send.
				entry.Wait = 2
			}
		case tick:
			entry.Wait--
			if entry.Wait == 0 {
				entry.Gap = min(2*entry.Gap, maxRetransmitGap)
				entry.Due, entry.Wait = true, entry.Gap
				e.resent++
			}
		}
		due = due || entry.Due
	}
	if !due {
		return
	}
	for i, j := range e.cfg.Neighbors {
		var seqs []uint64
		d := b.Group(i, e.owed, &seqs)
		if d == nil || d.IsBottom() {
			continue
		}
		send(j, NewAckedDeltaMsg(d, seqs))
	}
	for k := range entries {
		entries[k].Due = false
	}
}

func (e *deltaAcked) deliver(x lattice.State, b *core.Buffer, from string, m Msg, send Sender) {
	switch msg := m.(type) {
	case *AckedDeltaMsg:
		e.receive(x, b, msg.Delta, from)
		// Acknowledge regardless of redundancy: the data arrived.
		send(from, newAckMsg(msg.Seqs))
	case *DeltaMsg:
		// A δ-group outside the acked sequence space: the store-level
		// digest anti-entropy repair path ships full object states this
		// way. Merge what inflates and propagate it onwards; there is
		// nothing to acknowledge.
		e.receive(x, b, msg.Delta, from)
	case *AckMsg:
		e.ack(b, slices.Index(e.cfg.Neighbors, from), msg.Seqs)
	}
}

// receive takes a δ-group d from a neighbor: the entries it covers are
// held by from, and leave once every neighbor they are owed to holds them
// (Config.PruneOnReceipt), before d is absorbed.
func (e *deltaAcked) receive(x lattice.State, b *core.Buffer, d lattice.State, from string) {
	if e.received(b, d, from) {
		b.Drop(len(e.cfg.Neighbors), e.owed)
	}
	absorb(e, x, b, d, from)
}

// ack marks the entries whose seqs neighbor acknowledges as held by it,
// and drops the entries every neighbor they are owed to now holds. An
// acknowledgement echoes the seqs of one AckedDeltaMsg, which ship lists
// in buffer order, so both sides ascend and one two-pointer walk pairs
// them; seqs in any other order (never sent by this code) are sorted
// first.
func (e *deltaAcked) ack(b *core.Buffer, neighbor int, seqs []uint64) {
	if neighbor < 0 {
		return
	}
	if !slices.IsSorted(seqs) {
		seqs = slices.Clone(seqs)
		slices.Sort(seqs)
	}
	entries := b.Entries()
	for k := range entries {
		entry := &entries[k]
		for len(seqs) > 0 && seqs[0] < entry.Seq {
			seqs = seqs[1:]
		}
		if len(seqs) > 0 && seqs[0] == entry.Seq {
			entry.Held.Add(neighbor)
		}
	}
	b.Drop(len(e.cfg.Neighbors), e.owed)
}

// owed reports whether the neighbor at position i must receive an entry
// that came from origin. Under BP two neighbors need not: origin itself,
// and one that origin has announced it sends to (Config.Reach), because
// origin, or whoever origin had the entry from, up to the node that issued
// it, holds the entry for that neighbor and sends it until acknowledged.
// Reach records each neighbor an entry is withheld from so.
func (e *deltaAcked) owed(origin string, i int) bool {
	return !e.bp || origin != e.cfg.Neighbors[i] && !e.cfg.Reach.withholds(origin, i)
}

func (e *deltaAcked) memory(x lattice.State, b *core.Buffer) metrics.Memory {
	meta := 0
	for _, entry := range b.Entries() {
		meta += 8 + 8*entry.Held.Len()
	}
	return metrics.Memory{
		CRDTBytes:     x.SizeBytes(),
		BufferBytes:   b.SizeBytes(),
		MetadataBytes: meta,
	}
}
