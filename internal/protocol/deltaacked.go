package protocol

import (
	"math/bits"
	"slices"

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

// ackedEntry is one δ-buffer entry awaiting acknowledgment.
//
// An entry goes to every neighbor that is owed it in one Flush or Sync,
// so what has been sent is a property of the entry, not of the
// (entry, neighbor) pair; acked is what differs per neighbor.
type ackedEntry struct {
	seq    uint64
	delta  lattice.State
	origin string
	acked  bitset // by position in Config.Neighbors; held by receipt counts
	// wait is the number of ticks until the entry is sent again to the
	// neighbors still owing its ack; 0 means it has never been sent.
	// gap is the wait the last send armed: 1 on the first send, doubled
	// by every retransmission up to maxRetransmitGap.
	wait, gap uint8
	// due marks the entry for the send pass of the Flush or Sync that is
	// running; always false between calls.
	due bool
}

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

// bitset is a set of small non-negative integers: one inline word for
// members below 64 (every deployment here), a slice for the rest.
type bitset struct {
	lo uint64
	hi []uint64
}

func (b *bitset) add(i int) {
	if i < 64 {
		b.lo |= 1 << i
		return
	}
	w := i/64 - 1
	if w >= len(b.hi) {
		b.hi = append(b.hi, make([]uint64, w+1-len(b.hi))...)
	}
	b.hi[w] |= 1 << (i % 64)
}

func (b *bitset) has(i int) bool {
	if i < 64 {
		return b.lo&(1<<i) != 0
	}
	w := i/64 - 1
	return w < len(b.hi) && b.hi[w]&(1<<(i%64)) != 0
}

func (b *bitset) len() int {
	n := bits.OnesCount64(b.lo)
	for _, w := range b.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

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
// says it delivers to itself (owed). Under Config.PruneOnReceipt a
// neighbor whose δ-group covers an entry counts as having acknowledged
// it (markHeld).
//
// The buffer holds its entries by value, ascending by seq, and is nil
// whenever it is empty: the ack that retires the last entry releases the
// backing array with it, so an idle object keeps no reference to a
// δ-group it has shipped.
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

// ReachConsulter is implemented by the delta engines. ConsultsReach
// reports whether the engine withholds forwards on Config.Reach, so that
// whoever runs it knows to cover for a neighbor whose word stops holding.
// An engine that only defers a forward on it (the plain one, under
// Config.PruneOnReceipt) makes the forward a step later, and owes no
// cover.
type ReachConsulter interface{ ConsultsReach() bool }

// NewDeltaAcked returns the acknowledgment-based delta engine factory with
// the given optimizations.
func NewDeltaAcked(bp, rr bool) Factory {
	return func(cfg Config) Engine {
		return newObject[[]ackedEntry](&deltaAcked{deltaConfig: deltaConfig{cfg: cfg, bp: bp, rr: rr}})
	}
}

func (e *deltaAcked) store(x lattice.State, b *[]ackedEntry, s lattice.State, origin string) {
	x.Merge(s)
	if e.bp {
		e.cfg.Reach.withhold(origin)
	}
	entry := ackedEntry{delta: s, origin: origin}
	if e.fullyAcked(&entry) {
		// No neighbor ever needs this entry — e.g. its origin is the
		// only neighbor under BP or reaches every other one itself, or
		// the node has no neighbors at all. Buffering it would leak:
		// nothing sends it, so no ack could ever prune it.
		return
	}
	e.nextSeq++
	entry.seq = e.nextSeq
	*b = append(*b, entry)
}

// unsent: new entries are appended and every send pass covers the whole
// buffer, so the never-sent ones are a suffix of it.
func (e *deltaAcked) unsent(b *[]ackedEntry) bool {
	n := len(*b)
	return n > 0 && (*b)[n-1].wait == 0
}

// waiting: a buffered entry is one some neighbor has not acknowledged,
// which only a later tick can decide to send again.
func (e *deltaAcked) waiting(b *[]ackedEntry) bool { return len(*b) > 0 }

func (e *deltaAcked) retransmits() uint64 { return e.resent }

// ship marks the entries due on this pass — those never sent, and on a
// tick those whose wait runs out — then sends each neighbor the join of
// the due entries it is owed and has not acknowledged.
func (e *deltaAcked) ship(b *[]ackedEntry, send Sender, tick bool) {
	if tick && e.cfg.Reach != nil {
		// An origin may have announced since the entry was buffered the
		// last neighbor that had not acknowledged it.
		e.retire(b)
	}
	buf := *b
	due := false
	for k := range buf {
		entry := &buf[k]
		switch {
		case entry.wait == 0:
			entry.due, entry.gap, entry.wait = true, 1, 1
			if !tick {
				// Sent between two ticks: the next tick does not
				// complete a full one since this send.
				entry.wait = 2
			}
		case tick:
			entry.wait--
			if entry.wait == 0 {
				entry.gap = min(2*entry.gap, maxRetransmitGap)
				entry.due, entry.wait = true, entry.gap
				e.resent++
			}
		}
		due = due || entry.due
	}
	if !due {
		return
	}
	for i, j := range e.cfg.Neighbors {
		var d lattice.State
		var seqs []uint64
		for k := range buf {
			entry := &buf[k]
			if !entry.due || entry.acked.has(i) || !e.owed(entry.origin, i) {
				continue
			}
			if d == nil {
				d = entry.delta.Clone()
			} else {
				d.Merge(entry.delta)
			}
			seqs = append(seqs, entry.seq)
		}
		if d == nil || d.IsBottom() {
			continue
		}
		send(j, NewAckedDeltaMsg(d, seqs))
	}
	for k := range buf {
		buf[k].due = false
	}
}

func (e *deltaAcked) deliver(x lattice.State, b *[]ackedEntry, from string, m Msg, send Sender) {
	switch msg := m.(type) {
	case *AckedDeltaMsg:
		e.markHeld(b, msg.Delta, from)
		absorb(e, x, b, msg.Delta, from)
		// Acknowledge regardless of redundancy: the data arrived.
		send(from, newAckMsg(msg.Seqs))
	case *DeltaMsg:
		// A δ-group outside the acked sequence space: the store-level
		// digest anti-entropy repair path ships full object states this
		// way. Merge what inflates and propagate it onwards; there is
		// nothing to acknowledge.
		e.markHeld(b, msg.Delta, from)
		absorb(e, x, b, msg.Delta, from)
	case *AckMsg:
		e.ack(b, slices.Index(e.cfg.Neighbors, from), msg.Seqs)
	}
}

// ack records neighbor's acknowledgment of seqs and drops the entries
// that are thereby fully acknowledged. An acknowledgment echoes the seqs
// of one AckedDeltaMsg, which ship lists in buffer order, so both sides
// ascend and one two-pointer walk pairs them; seqs in any other order
// (never sent by this code) are sorted first.
func (e *deltaAcked) ack(b *[]ackedEntry, neighbor int, seqs []uint64) {
	if neighbor < 0 {
		return
	}
	if !slices.IsSorted(seqs) {
		seqs = slices.Clone(seqs)
		slices.Sort(seqs)
	}
	buf := *b
	for k := range buf {
		entry := &buf[k]
		for len(seqs) > 0 && seqs[0] < entry.seq {
			seqs = seqs[1:]
		}
		if len(seqs) > 0 && seqs[0] == entry.seq {
			entry.acked.add(neighbor)
		}
	}
	e.retire(b)
}

// markHeld counts from, whose δ-group d has just arrived, as having
// acknowledged every buffered entry d covers, and retires the entries
// that leaves fully acknowledged (Config.PruneOnReceipt): from holds
// whatever it sends, so none of them is ever sent, or resent, to it.
func (e *deltaAcked) markHeld(b *[]ackedEntry, d lattice.State, from string) {
	if len(*b) == 0 {
		return
	}
	i := e.holder(from)
	if i < 0 {
		return
	}
	marked := false
	for k := range *b {
		if entry := &(*b)[k]; !entry.acked.has(i) && entry.delta.Leq(d) {
			entry.acked.add(i)
			marked = true
		}
	}
	if marked {
		e.retire(b)
	}
}

// retire drops the entries every neighbor they are owed to has
// acknowledged.
func (e *deltaAcked) retire(b *[]ackedEntry) {
	buf := *b
	kept := 0
	for k := range buf {
		if !e.fullyAcked(&buf[k]) {
			buf[kept] = buf[k]
			kept++
		}
	}
	if kept == 0 {
		*b = nil
		return
	}
	clear(buf[kept:]) // the retired entries' δ-groups
	*b = buf[:kept]
}

// owed reports whether the neighbor at position i must receive an entry
// that came from origin. Under BP two neighbors need not: origin itself,
// and one that origin has announced it sends to (Config.Reach), because
// origin, or whoever origin had the entry from, up to the node that issued
// it, holds the entry for that neighbor and sends it until acknowledged.
func (e *deltaAcked) owed(origin string, i int) bool {
	return !e.bp || origin != e.cfg.Neighbors[i] && !e.cfg.Reach.has(origin, i)
}

// fullyAcked reports whether every neighbor the entry is owed to has
// acknowledged it.
func (e *deltaAcked) fullyAcked(entry *ackedEntry) bool {
	for i := range e.cfg.Neighbors {
		if !entry.acked.has(i) && e.owed(entry.origin, i) {
			return false
		}
	}
	return true
}

func (e *deltaAcked) memory(x lattice.State, b *[]ackedEntry) metrics.Memory {
	buf, meta := 0, 0
	for k := range *b {
		entry := &(*b)[k]
		buf += entry.delta.SizeBytes() + len(entry.origin)
		meta += 8 + 8*entry.acked.len()
	}
	return metrics.Memory{
		CRDTBytes:     x.SizeBytes(),
		BufferBytes:   buf,
		MetadataBytes: meta,
	}
}
