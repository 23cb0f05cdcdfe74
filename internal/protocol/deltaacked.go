package protocol

import (
	"math/bits"
	"slices"

	"crdtsync/internal/core"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/workload"
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
type ackedEntry struct {
	seq    uint64
	delta  lattice.State
	origin string
	acked  bitset // by position in Config.Neighbors
}

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
// must receive it has acknowledged it. Unacknowledged entries are resent
// every round, so convergence survives message loss — which the
// clear-after-send algorithm does not.
//
// BP and RR compose with acknowledgments exactly as in Algorithm 1.
//
// The buffer holds its entries by value, ascending by seq, and is nil
// whenever it is empty: the ack that retires the last entry releases the
// backing array with it, so an idle object keeps no reference to a
// δ-group it has shipped.
type deltaAcked struct {
	*deltaConfig
	x       lattice.State
	nextSeq uint64
	buf     []ackedEntry
}

// NewDeltaAcked returns the acknowledgment-based delta engine factory with
// the given optimizations.
func NewDeltaAcked(bp, rr bool) Factory {
	return func(cfg Config) Engine {
		return (&deltaAcked{deltaConfig: &deltaConfig{cfg: cfg, bp: bp, rr: rr}}).fork()
	}
}

// fork implements forker.
func (e *deltaAcked) fork() Engine {
	return &deltaAcked{deltaConfig: e.deltaConfig, x: e.cfg.Datatype.New()}
}

func (e *deltaAcked) ID() string           { return e.cfg.ID }
func (e *deltaAcked) State() lattice.State { return e.x }

func (e *deltaAcked) store(s lattice.State, origin string) {
	e.x.Merge(s)
	entry := ackedEntry{delta: s, origin: origin}
	if e.fullyAcked(&entry) {
		// No neighbor ever needs this entry — e.g. its origin is the
		// only neighbor under BP, or the node has no neighbors at all.
		// Buffering it would leak: nothing sends it, so no ack could
		// ever prune it.
		return
	}
	e.nextSeq++
	entry.seq = e.nextSeq
	e.buf = append(e.buf, entry)
}

func (e *deltaAcked) LocalOp(op workload.Op) {
	d := e.cfg.Datatype.Delta(e.x, e.cfg.ID, op)
	if d.IsBottom() {
		return
	}
	e.store(d, e.cfg.ID)
}

func (e *deltaAcked) Sync(send Sender) {
	for i, j := range e.cfg.Neighbors {
		var d lattice.State
		var seqs []uint64
		for k := range e.buf {
			entry := &e.buf[k]
			if e.bp && entry.origin == j {
				continue
			}
			if entry.acked.has(i) {
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
		cost := stateCost(d, 8*len(seqs))
		send(j, &AckedDeltaMsg{Delta: d, Seqs: seqs, cost: cost})
	}
}

// absorb runs Algorithm 1's receive side on one δ-group: under RR it
// extracts and stores exactly the part that strictly inflates the local
// state, otherwise it applies the classic inflation check.
func (e *deltaAcked) absorb(d lattice.State, from string) {
	if e.rr {
		// The subset check recognizes a fully redundant δ-group (the
		// steady-state re-delivery) without allocating the bottom Δ
		// would return.
		if d.Leq(e.x) {
			return
		}
		e.store(core.Delta(d, e.x), from)
	} else if lattice.StrictlyInflates(d, e.x) {
		e.store(d, from)
	}
}

func (e *deltaAcked) Deliver(from string, m Msg, send Sender) {
	switch msg := m.(type) {
	case *AckedDeltaMsg:
		e.absorb(msg.Delta, from)
		// Acknowledge regardless of redundancy: the data arrived.
		send(from, &AckMsg{
			Seqs: msg.Seqs,
			cost: metrics.Transmission{Messages: 1, MetadataBytes: 8 * len(msg.Seqs)},
		})
	case *DeltaMsg:
		// A δ-group outside the acked sequence space: the store-level
		// digest anti-entropy repair path ships full object states this
		// way. Merge what inflates and propagate it onwards; there is
		// nothing to acknowledge.
		e.absorb(msg.Delta, from)
	case *AckMsg:
		e.ack(slices.Index(e.cfg.Neighbors, from), msg.Seqs)
	}
}

// ack records neighbor's acknowledgment of seqs and drops the entries
// that are thereby fully acknowledged. An acknowledgment echoes the seqs
// of one AckedDeltaMsg, which Sync lists in buffer order, so both sides
// ascend and one two-pointer walk pairs them; seqs in any other order
// (never sent by this code) are sorted first.
func (e *deltaAcked) ack(neighbor int, seqs []uint64) {
	if neighbor < 0 {
		return
	}
	if !slices.IsSorted(seqs) {
		seqs = slices.Clone(seqs)
		slices.Sort(seqs)
	}
	kept := 0
	for k := range e.buf {
		entry := &e.buf[k]
		for len(seqs) > 0 && seqs[0] < entry.seq {
			seqs = seqs[1:]
		}
		if len(seqs) > 0 && seqs[0] == entry.seq {
			entry.acked.add(neighbor)
		}
		if !e.fullyAcked(entry) {
			e.buf[kept] = *entry
			kept++
		}
	}
	if kept == 0 {
		e.buf = nil
		return
	}
	clear(e.buf[kept:]) // the retired entries' δ-groups
	e.buf = e.buf[:kept]
}

// fullyAcked reports whether every neighbor that must receive the entry
// has acknowledged it (its origin, under BP, never receives it).
func (e *deltaAcked) fullyAcked(entry *ackedEntry) bool {
	for i, j := range e.cfg.Neighbors {
		if e.bp && entry.origin == j {
			continue
		}
		if !entry.acked.has(i) {
			return false
		}
	}
	return true
}

func (e *deltaAcked) Memory() metrics.Memory {
	buf, meta := 0, 0
	for k := range e.buf {
		entry := &e.buf[k]
		buf += entry.delta.SizeBytes() + len(entry.origin)
		meta += 8 + 8*entry.acked.len()
	}
	return metrics.Memory{
		CRDTBytes:     e.x.SizeBytes(),
		BufferBytes:   buf,
		MetadataBytes: meta,
	}
}
