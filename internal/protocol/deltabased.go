package protocol

import (
	"math/bits"

	"crdtsync/internal/core"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
)

// DeltaMsg carries one δ-group (the join of buffered deltas).
type DeltaMsg struct {
	Delta lattice.State
	cost  metrics.Transmission
}

// Kind implements Msg.
func (m *DeltaMsg) Kind() string { return "delta" }

// Cost implements Msg.
func (m *DeltaMsg) Cost() metrics.Transmission { return m.cost }

// deltaBased implements Algorithm 1 of the paper in all four variants:
// classic (BP = RR = false), BP only, RR only, and BP+RR.
//
//   - LocalOp runs the δ-mutator and store()s the delta (lines 6–8).
//   - Sync joins the δ-buffer into one δ-group per neighbor — filtering
//     entries that originated at that neighbor when BP is on (lines 9–13).
//   - receive either performs the classic inflation check (line 16, left)
//     or extracts Δ(d, xᵢ), the exact part of the δ-group that strictly
//     inflates the local state, when RR is on (lines 15–16, right).
//
// Per the paper's channel assumptions (no loss; duplication and reordering
// allowed) a neighbor holds whatever it has been sent, so the buffer is
// cleared after each synchronization step; each message carries one
// sequence number per neighbor as metadata. Under Config.PruneOnReceipt
// an entry instead leaves once every neighbor it is owed to holds it: a
// pass sends it to every neighbor its forward is not held for (deferred),
// and a held forward goes at the pass that follows the end of its hold —
// the second tick after the entry was buffered (holdTicks), or release —
// unless the neighbor has sent the entry back meanwhile.
type deltaBased struct{ deltaConfig }

// NewDeltaBased returns a delta-based engine factory with the given
// optimizations enabled.
func NewDeltaBased(bp, rr bool) Factory {
	return func(cfg Config) Engine {
		return newObject(&deltaBased{deltaConfig{cfg: cfg, bp: bp, rr: rr}})
	}
}

// NewDeltaClassic returns the classic delta-based factory (no BP, no RR).
func NewDeltaClassic() Factory { return NewDeltaBased(false, false) }

// NewDeltaBPRR returns the fully optimized delta-based factory (BP + RR).
func NewDeltaBPRR() Factory { return NewDeltaBased(true, true) }

func (e *deltaBased) store(x lattice.State, b *core.Buffer, s lattice.State, origin string) {
	x.Merge(s)
	b.Push(core.Entry{Delta: s, Origin: origin, Defer: e.deferred(origin)})
}

// deferred is the set of neighbors, by position, that the forward of an
// entry from origin is held for, under Config.PruneOnReceipt alone. They
// are those origin has announced it reaches (Config.Reach) whose id
// orders before this node's. Each of them is sent the δ-group by origin
// and forwards it here at its next pass, which lets this node's forward
// go unmade (MarkHeld); of the two receivers of one δ-group, the one that
// orders first forwards at once and the other holds its forward until
// the first's has had a whole period to arrive. A copy that origin's
// frame lost is covered by the held forward, late but never withheld.
// Positions past 64 are never deferred.
func (e *deltaBased) deferred(origin string) uint64 {
	if !e.cfg.PruneOnReceipt {
		return 0
	}
	reach := e.cfg.Reach.set(origin)
	var d uint64
	for i, j := range e.cfg.Neighbors[:min(64, len(e.cfg.Neighbors))] {
		if reach.Has(i) && j < e.cfg.ID {
			d |= 1 << i
		}
	}
	return d
}

// owed reports whether the neighbor at position i must receive an entry
// that came from origin: under BP, every neighbor but origin.
func (e *deltaBased) owed(origin string, i int) bool { return !e.bp || origin != e.cfg.Neighbors[i] }

func (e *deltaBased) receive(x lattice.State, b *core.Buffer, d lattice.State, from string) {
	e.received(b, d, from)
	absorb(e, x, b, d, from)
}

// ack ignores an acknowledgement: the plain engine numbers no entries.
func (e *deltaBased) ack(*core.Buffer, string, []uint64, bool) {}

// holdTicks is the tick of its own at which a held forward is released:
// the second after the entry was buffered. The first receiver of the
// δ-group forwards it at its next pass, and every store ticks once a
// period, so by then its copy has all but always arrived and pruned the
// held one — where a hold of one pass lost about half of those races.
const holdTicks = 2

// ship emits each neighbor the join of the due entries it is owed
// (core.Buffer.Group) and ends the pass: every neighbor a forward was
// not held for now holds the entry, an entry still held for some
// neighbor waits, not due, for its release, and the entries every owed
// neighbor holds leave. A tick first counts itself against every hold
// and releases those that reach holdTicks. A pass between two ticks does
// the same but for the count: nothing is ever sent twice, so the
// first-transmission pass is the whole of the tick.
func (e *deltaBased) ship(b *core.Buffer, key string, emit Emit, tick bool) {
	n := len(e.cfg.Neighbors)
	entries := b.Entries()
	if tick {
		for k := range entries {
			if en := &entries[k]; en.Defer != 0 {
				if en.Ticks++; en.Ticks >= holdTicks {
					endHold(en, ^uint64(0))
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if d := b.Group(i, e.owed, nil); d != nil && !d.IsBottom() {
			emit(key, i, d, nil, false)
		}
	}
	for k := range entries {
		en := &entries[k]
		if !en.Due {
			continue
		}
		for i := 0; i < n; i++ {
			if i >= 64 || en.Defer&(1<<i) == 0 {
				en.Held.Add(i)
			}
		}
		en.Due = false
	}
	b.Drop(n, e.owed)
}

// release ends the holds of b's entries toward the neighbors of mask, by
// position, and reports whether one of them did not hold its entry yet:
// a forward the next pass makes.
func (e *deltaBased) release(b *core.Buffer, mask uint64) bool {
	ended := false
	entries := b.Entries()
	for k := range entries {
		if en := &entries[k]; en.Defer&mask != 0 {
			ended = endHold(en, mask) || ended
		}
	}
	return ended
}

// endHold ends en's holds toward the neighbors of mask, and reports
// whether one of them does not hold en yet: en is due then.
func endHold(en *core.Entry, mask uint64) bool {
	owed := false
	for d := en.Defer & mask; d != 0; d &= d - 1 {
		owed = owed || !en.Held.Has(bits.TrailingZeros64(d))
	}
	en.Defer &^= mask
	en.Due = en.Due || owed
	return owed
}

func (e *deltaBased) retransmits() (resent, spurious uint64) { return 0, 0 }

func (e *deltaBased) resendAfter([]uint8) {}

func (e *deltaBased) memory(x lattice.State, b *core.Buffer) metrics.Memory {
	return metrics.Memory{
		CRDTBytes:   x.SizeBytes(),
		BufferBytes: b.SizeBytes(),
		// One 8-byte sequence counter per neighbor.
		MetadataBytes: 8 * len(e.cfg.Neighbors),
	}
}
