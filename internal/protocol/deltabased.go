package protocol

import (
	"crdtsync/internal/core"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/workload"
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
type deltaBased struct {
	*deltaConfig
	x   lattice.State
	buf core.Buffer
}

var _ Flusher = (*deltaBased)(nil)

// deltaConfig is what every instance of one delta engine over one
// datatype has in common. It is held by pointer, so the per-object
// engines of a keyspace (forker) share one copy instead of carrying the
// node's Config each; the configuration proper is immutable.
type deltaConfig struct {
	cfg    Config
	bp, rr bool
	// retransmits counts the acked engine's re-sends: the one word the
	// sharing engines write, under whatever serializes their calls (the
	// shard lock, in a store), kept here because a counter of their own
	// would cost every key of a keyspace eight bytes.
	retransmits uint64
}

// NewDeltaBased returns a delta-based engine factory with the given
// optimizations enabled.
func NewDeltaBased(bp, rr bool) Factory {
	return func(cfg Config) Engine {
		return (&deltaBased{deltaConfig: &deltaConfig{cfg: cfg, bp: bp, rr: rr}}).fork()
	}
}

// fork implements forker.
func (e *deltaBased) fork() Engine {
	return &deltaBased{deltaConfig: e.deltaConfig, x: e.cfg.Datatype.New()}
}

// NewDeltaClassic returns the classic delta-based factory (no BP, no RR).
func NewDeltaClassic() Factory { return NewDeltaBased(false, false) }

// NewDeltaBPRR returns the fully optimized delta-based factory (BP + RR).
func NewDeltaBPRR() Factory { return NewDeltaBased(true, true) }

func (e *deltaBased) ID() string           { return e.cfg.ID }
func (e *deltaBased) State() lattice.State { return e.x }

// store is Algorithm 1's store(s, o): join into the local state and buffer
// for further propagation.
func (e *deltaBased) store(s lattice.State, origin string) {
	e.x.Merge(s)
	e.buf.Add(s, origin)
}

func (e *deltaBased) LocalOp(op workload.Op) {
	d := e.cfg.Datatype.Delta(e.x, e.cfg.ID, op)
	if d.IsBottom() {
		return
	}
	e.store(d, e.cfg.ID)
}

func (e *deltaBased) Sync(send Sender) {
	for _, j := range e.cfg.Neighbors {
		var d lattice.State
		if e.bp {
			d = e.buf.GroupExcluding(j)
		} else {
			d = e.buf.GroupAll()
		}
		if d == nil || d.IsBottom() {
			continue
		}
		send(j, NewDeltaMsg(d))
	}
	e.buf.Clear()
}

// Flush implements Flusher. Clear-after-send never sends anything twice,
// so the first-transmission pass is the whole of Sync.
func (e *deltaBased) Flush(send Sender) { e.Sync(send) }

// Unsent implements Flusher.
func (e *deltaBased) Unsent() bool { return e.buf.Len() > 0 }

// Waiting implements Flusher: nothing outlives the Sync that sent it.
func (e *deltaBased) Waiting() bool { return e.buf.Len() > 0 }

func (e *deltaBased) Deliver(from string, m Msg, _ Sender) {
	dm, ok := m.(*DeltaMsg)
	if !ok {
		return
	}
	d := dm.Delta
	if e.rr {
		// RR: extract exactly what strictly inflates the local state. A
		// δ-group the state already covers — every re-delivery at steady
		// state — is recognized by the subset check alone, without
		// allocating even the bottom Δ would return.
		if d.Leq(e.x) {
			return
		}
		d = core.Delta(d, e.x)
		e.store(d, from)
		return
	}
	// Classic: harmless-looking inflation check — the source of most
	// redundant propagation, as §IV explains.
	if lattice.StrictlyInflates(d, e.x) {
		e.store(d, from)
	}
}

func (e *deltaBased) Memory() metrics.Memory {
	return metrics.Memory{
		CRDTBytes:   e.x.SizeBytes(),
		BufferBytes: e.buf.SizeBytes(),
		// One 8-byte sequence counter per neighbor.
		MetadataBytes: 8 * len(e.cfg.Neighbors),
	}
}
