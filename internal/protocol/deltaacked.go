package protocol

import (
	"math"
	"slices"

	"crdtsync/internal/core"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
)

// AckedDeltaMsg is a δ-group tagged with the buffer sequence numbers it
// covers, so the receiver can acknowledge them. Retry is set when the pass
// that made it sent one of the object's entries again, so that the message
// may not be the first send of all it carries: the sender's own note, never
// on the wire.
type AckedDeltaMsg struct {
	Delta lattice.State
	Seqs  []uint64
	Retry bool
	cost  metrics.Transmission
}

// Kind implements Msg.
func (m *AckedDeltaMsg) Kind() string { return "delta-acked" }

// Cost implements Msg.
func (m *AckedDeltaMsg) Cost() metrics.Transmission { return m.cost }

// ackMsg acknowledges received δ-buffer entries. Retry echoes the
// acknowledged AckedDeltaMsg's: an acknowledgement of a message that
// carried first sends only is what tells a resend it was spurious.
type ackMsg struct {
	Seqs  []uint64
	Retry bool
	cost  metrics.Transmission
}

// Kind implements Msg.
func (m *ackMsg) Kind() string { return "ack" }

// Cost implements Msg.
func (m *ackMsg) Cost() metrics.Transmission { return m.cost }

// maxRetransmitGap caps the doubling of the gap between two sends of an
// unacknowledged entry, in ticks, unless the wait alone is longer: an
// entry is sent again w ticks after its first send, then 2w, 4w, … ticks
// after the send before, never more than max(w, maxRetransmitGap) apart.
// w is one tick for an engine nobody tells otherwise (netsim's: 1, 2, 4,
// 8, 8, … ticks), and the store's core sets it from each link's measured
// round trip (ResendAfter): three or four ticks on a short link, whose
// receiver holds an acknowledgement between one tick and two. The doubling
// is what keeps a slow or absent peer from being re-sent everything in
// flight on every tick. The cap only shows in the tail: a 3-store mesh,
// 3000 keys, 15 ms ticks and a one-tick w, five seeds each — at 20% frame
// loss caps 1 to 32 are indistinguishable (converged within one 50 ms poll
// of the last write, 5.9–7.0 elements per update); at 50% the last write
// converges 0.10–0.41 s later with the cap at 8, 0.15–0.61 s at 16,
// 0.10–0.91 s at 64, for the same 11–16 elements per update. A measured w
// recovers a loss later than one tick does: on TestLinkAckConvergesUnderLoss's
// 3-mesh the last write converges a median 16, 30 and 135 periods later
// at 10, 20 and 50% loss, where a one-tick w with a hold of half a tick
// took 9, 11 and 62.
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
// a first-transmission pass ships what has never been sent; the tick does
// that too, and re-sends an entry only once its wait has gone by since it
// was last sent without every ack arriving, then twice that, and so on
// (maxRetransmitGap). The wait is counted in ticks, so a simulator or a
// test that drives Sync by hand needs no clock, and it is read on every
// tick, so that a wait the owner lengthens holds back what is already in
// flight (ResendAfter).
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
	// resent counts re-sends, over every object this runs, and spurious
	// those an acknowledgement of the entry's first send showed were not
	// needed (Eifel): the entry had arrived, its acknowledgement had not.
	resent, spurious uint64
	// waits holds the ticks an entry waits for each neighbor's
	// acknowledgement, by position, as the owner measures them
	// (ResendAfter); nil is one tick each.
	waits []uint8
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

func (e *deltaAcked) retransmits() (resent, spurious uint64) { return e.resent, e.spurious }

func (e *deltaAcked) resendAfter(waits []uint8) { e.waits = waits }

// release ends nothing: the acked engine withholds a forward on a
// neighbor's word (owed) and holds none.
func (e *deltaAcked) release(*core.Buffer, uint64) bool { return false }

// ship marks the entries due on this pass — those never sent, and on a
// tick those whose wait runs out — then emits each neighbor the join of
// the due entries it is owed and does not hold. Wait counts the ticks an
// entry has seen since its last send, that send's own tick included, and
// Gap the times it has been sent again: it is sent again once Wait passes
// gap, a whole number of ticks after the send.
func (e *deltaAcked) ship(b *core.Buffer, key string, emit Emit, tick bool) {
	n := len(e.cfg.Neighbors)
	if tick && e.cfg.Reach != nil {
		// An origin may have announced since the entry was buffered the
		// last neighbor that had not acknowledged it.
		b.Drop(n, e.owed)
	}
	entries := b.Entries()
	due, retry := false, false
	for k := range entries {
		entry := &entries[k]
		switch {
		case entry.Due: // never sent
			entry.Gap, entry.Wait = 0, 0
			if tick {
				entry.Wait = 1
			}
		case tick:
			entry.Wait = min(entry.Wait, math.MaxUint8-1) + 1
			if int(entry.Wait) > e.gap(entry) {
				entry.Gap = min(entry.Gap+1, maxBackoff)
				entry.Due, entry.Wait = true, 1
				e.resent++
				retry = true
			}
		}
		due = due || entry.Due
	}
	if !due {
		return
	}
	for i := 0; i < n; i++ {
		var seqs []uint64
		if d := b.Group(i, e.owed, &seqs); d != nil && !d.IsBottom() {
			emit(key, i, d, seqs, retry)
		}
	}
	for k := range entries {
		entries[k].Due = false
	}
}

// maxBackoff bounds Gap: past it the doubling has reached any cap.
const maxBackoff = 8

// gap returns the ticks entry waits, since its last send, before it is
// sent again: the longest wait of a neighbor it is still owed to, doubled
// for each send again and capped (maxRetransmitGap).
func (e *deltaAcked) gap(entry *core.Entry) int {
	w := 1
	for i := range e.waits {
		if !entry.Held.Has(i) && e.owed(entry.Origin, i) {
			w = max(w, int(e.waits[i]))
		}
	}
	return min(w<<entry.Gap, max(w, maxRetransmitGap))
}

// receive takes a δ-group d from a neighbor: the entries it covers are
// held by from, and leave once every neighbor they are owed to holds them
// (Config.PruneOnReceipt), before d is absorbed. Digest repair's whole
// states, which carry no seqs, are received the same way.
func (e *deltaAcked) receive(x lattice.State, b *core.Buffer, d lattice.State, from string) {
	if e.received(b, d, from) {
		b.Drop(len(e.cfg.Neighbors), e.owed)
	}
	absorb(e, x, b, d, from)
}

// ack marks the entries whose seqs the neighbor from acknowledges as held
// by it, and drops the entries every neighbor they are owed to now holds.
// An acknowledgement echoes the seqs of one δ-group, which ship lists in
// buffer order, so both sides ascend and one two-pointer walk pairs them;
// seqs in any other order (never sent by this code) are sorted first. An
// entry sent again that an acknowledgement of first sends alone (no retry)
// marks had a spurious resend. A sender that is no neighbor marks nothing.
func (e *deltaAcked) ack(b *core.Buffer, from string, seqs []uint64, retry bool) {
	neighbor := slices.Index(e.cfg.Neighbors, from)
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
		if len(seqs) > 0 && seqs[0] == entry.Seq && !entry.Held.Has(neighbor) {
			entry.Held.Add(neighbor)
			if entry.Gap > 0 && !retry {
				e.spurious++
			}
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
