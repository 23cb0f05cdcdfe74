package protocol

import (
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
//   - Deliver either performs the classic inflation check (line 16, left)
//     or extracts Δ(d, xᵢ), the exact part of the δ-group that strictly
//     inflates the local state, when RR is on (lines 15–16, right).
//
// Per the paper's channel assumptions (no loss; duplication and reordering
// allowed) the buffer is cleared after each synchronization step; each
// message carries one sequence number per neighbor as metadata.
type deltaBased struct{ deltaConfig }

// NewDeltaBased returns a delta-based engine factory with the given
// optimizations enabled.
func NewDeltaBased(bp, rr bool) Factory {
	return func(cfg Config) Engine {
		return newObject[core.Buffer](&deltaBased{deltaConfig{cfg: cfg, bp: bp, rr: rr}})
	}
}

// NewDeltaClassic returns the classic delta-based factory (no BP, no RR).
func NewDeltaClassic() Factory { return NewDeltaBased(false, false) }

// NewDeltaBPRR returns the fully optimized delta-based factory (BP + RR).
func NewDeltaBPRR() Factory { return NewDeltaBased(true, true) }

func (e *deltaBased) store(x lattice.State, b *core.Buffer, s lattice.State, origin string) {
	x.Merge(s)
	b.Add(s, origin)
}

func (e *deltaBased) deliver(x lattice.State, b *core.Buffer, from string, m Msg, _ Sender) {
	if dm, ok := m.(*DeltaMsg); ok {
		if b.Len() > 0 {
			b.MarkHeld(dm.Delta, e.holder(from))
		}
		absorb(e, x, b, dm.Delta, from)
	}
}

// ship sends each neighbor the join of the buffer and clears it. A pass
// between two ticks does the same: clear-after-send never sends anything
// twice, so the first-transmission pass is the whole of the tick. An
// entry a neighbor is marked as holding (Config.PruneOnReceipt) is left
// out of its group.
func (e *deltaBased) ship(b *core.Buffer, send Sender, _ bool) {
	for i, j := range e.cfg.Neighbors {
		exclude := ""
		if e.bp {
			exclude = j
		}
		d := b.GroupExcluding(exclude, i)
		if d == nil || d.IsBottom() {
			continue
		}
		send(j, NewDeltaMsg(d))
	}
	b.Clear()
}

func (e *deltaBased) unsent(b *core.Buffer) bool { return b.Len() > 0 }

// waiting: nothing outlives the pass that sent it.
func (e *deltaBased) waiting(b *core.Buffer) bool { return b.Len() > 0 }

func (e *deltaBased) retransmits() uint64 { return 0 }

func (e *deltaBased) memory(x lattice.State, b *core.Buffer) metrics.Memory {
	return metrics.Memory{
		CRDTBytes:   x.SizeBytes(),
		BufferBytes: b.SizeBytes(),
		// One 8-byte sequence counter per neighbor.
		MetadataBytes: 8 * len(e.cfg.Neighbors),
	}
}
