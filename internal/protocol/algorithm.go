package protocol

import (
	"slices"

	"crdtsync/internal/core"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/workload"
)

// algorithm is Algorithm 1 over one object: what a local update, an
// inbound δ-group or acknowledgement and a send pass do to the object's
// state x and its δ-buffer b, which the caller holds. Its two
// implementations are the only code that runs the algorithm: *deltaBased
// clears the buffer after every send, *deltaAcked keeps each entry until
// it is acknowledged. A standalone engine (object) holds one pair (x, b)
// itself; a keyspace (PerObject) holds x in the key's record and b in a
// side table, only while it is not empty.
type algorithm interface {
	config() *deltaConfig
	// store is Algorithm 1's store(s, o): join s into x and buffer it for
	// further propagation.
	store(x lattice.State, b *core.Buffer, s lattice.State, origin string)
	// receive is Algorithm 1's receive side (lines 14–16) on the δ-group
	// d from the neighbor from.
	receive(x lattice.State, b *core.Buffer, d lattice.State, from string)
	// ack takes from's acknowledgement of the entries seqs of b, which one
	// δ-group carried with the retry note retry (Emit).
	ack(b *core.Buffer, from string, seqs []uint64, retry bool)
	// ship is a send pass over b, the δ-buffer of key: the tick when tick
	// is set, a first-transmission pass otherwise (PerObject.Pass). It
	// hands emit each neighbor's δ-group, leaves the entries the next pass
	// ships due (core.Buffer.Unsent), and b empty once no later pass has
	// anything to do.
	ship(b *core.Buffer, key string, emit Emit, tick bool)
	// release ends the holds of b's entries toward the neighbors of mask,
	// by position, before they run out: it leaves each forward it ends due
	// at the next pass, and reports whether there is one. An engine that
	// holds no forward ends nothing.
	release(b *core.Buffer, mask uint64) bool
	// resendAfter hands the engine the ticks an entry waits for each
	// neighbor's acknowledgement before it is sent again, by position,
	// which it reads on every tick (PerObject.ResendAfter). An engine that
	// sends nothing again ignores them.
	resendAfter(waits []uint8)
	// memory is the footprint of x and b.
	memory(x lattice.State, b *core.Buffer) metrics.Memory
	// retransmits counts the entries sent again, and of those the resends
	// an acknowledgement showed were not needed.
	retransmits() (resent, spurious uint64)
}

// Emit takes one δ-group of a send pass (Algorithm 1, line 11), the
// receiver's to keep: d = ⊔{s | ⟨s,o⟩ ∈ B ∧ o ≠ j} over key's δ-buffer B,
// for the neighbor j at position to. Under the acked engine seqs lists the
// entries' sequence numbers and retry says the pass sent one of them
// again; under the plain engine seqs is nil. A store packs the groups as
// they are, everything else takes them as messages (groupMsg).
type Emit func(key string, to int, d lattice.State, seqs []uint64, retry bool)

// groupMsg is the message a δ-group travels as outside a store: an
// AckedDeltaMsg under the acked engine, a DeltaMsg under the plain one.
func groupMsg(d lattice.State, seqs []uint64, retry bool) Msg {
	if seqs == nil {
		return NewDeltaMsg(d)
	}
	m := NewAckedDeltaMsg(d, seqs)
	m.Retry = retry
	return m
}

// deliverMsg is groupMsg's receive-side twin: it hands receive a message's
// δ-group and ack an acknowledgement's seqs, and ignores any other
// message. An AckedDeltaMsg is acknowledged through send, redundant or
// not: the data arrived. A store has no messages to unwrap (PerObject.Ack).
func deliverMsg(from string, m Msg, send Sender, receive func(d lattice.State), ack func(seqs []uint64, retry bool)) {
	switch m := m.(type) {
	case *DeltaMsg:
		receive(m.Delta)
	case *AckedDeltaMsg:
		receive(m.Delta)
		send(from, newAckMsg(m.Seqs, m.Retry))
	case *ackMsg:
		ack(m.Seqs, m.Retry)
	}
}

// deltaConfig is what every object run by one algorithm has in common. A
// standalone engine has one of its own; a keyspace has one for all of its
// keys, whatever their datatype, so only a standalone engine reads
// cfg.Datatype.
type deltaConfig struct {
	cfg    Config
	bp, rr bool
}

func (c *deltaConfig) config() *deltaConfig { return c }

// received marks the entries of b that d covers as held by from, whose
// δ-group d has just arrived, when the engine prunes by receipt
// (Config.PruneOnReceipt), and reports whether it marked any. A sender
// that is no neighbor marks nothing.
func (c *deltaConfig) received(b *core.Buffer, d lattice.State, from string) bool {
	if !c.cfg.PruneOnReceipt || b.Len() == 0 {
		return false
	}
	return b.MarkHeld(d, slices.Index(c.cfg.Neighbors, from))
}

// localOp is Algorithm 1's local update (lines 6–8): the δ-mutator of dt
// runs on x, and what it returns is stored unless it is bottom.
func localOp(a algorithm, dt workload.Datatype, x lattice.State, b *core.Buffer, op workload.Op) {
	id := a.config().cfg.ID
	if d := dt.Delta(x, id, op); !d.IsBottom() {
		a.store(x, b, d, id)
	}
}

// absorb is Algorithm 1's receive side on one δ-group d from a neighbor:
// under RR it stores exactly the part of d that strictly inflates x
// (lines 15–16, right), otherwise it applies the classic inflation check
// (line 16, left) — the source of most redundant propagation, as §IV
// explains.
func absorb(a algorithm, x lattice.State, b *core.Buffer, d lattice.State, from string) {
	if !a.config().rr {
		if lattice.StrictlyInflates(d, x) {
			a.store(x, b, d, from)
		}
		return
	}
	// The subset check recognizes a δ-group x already covers — every
	// re-delivery at steady state — without allocating even the bottom Δ
	// would return.
	if !d.Leq(x) {
		a.store(x, b, core.Delta(d, x), from)
	}
}

// object is a standalone delta engine: Algorithm 1 over the one state and
// δ-buffer it holds itself, as the simulator runs one per node.
type object struct {
	alg algorithm
	x   lattice.State
	buf core.Buffer
}

func newObject(alg algorithm) *object {
	return &object{alg: alg, x: alg.config().cfg.Datatype.New()}
}

func (e *object) ID() string           { return e.alg.config().cfg.ID }
func (e *object) State() lattice.State { return e.x }

func (e *object) LocalOp(op workload.Op) {
	localOp(e.alg, e.alg.config().cfg.Datatype, e.x, &e.buf, op)
}

func (e *object) Deliver(from string, m Msg, send Sender) {
	deliverMsg(from, m, send,
		func(d lattice.State) { e.alg.receive(e.x, &e.buf, d, from) },
		func(seqs []uint64, retry bool) { e.alg.ack(&e.buf, from, seqs, retry) })
}

// Sync implements Engine: one tick.
func (e *object) Sync(send Sender) { e.ship(send, true) }

// ship runs a send pass and sends each δ-group to its neighbor as its
// message (groupMsg).
func (e *object) ship(send Sender, tick bool) {
	neighbors := e.alg.config().cfg.Neighbors
	e.alg.ship(&e.buf, "", func(_ string, to int, d lattice.State, seqs []uint64, retry bool) {
		send(neighbors[to], groupMsg(d, seqs, retry))
	}, tick)
}

// Unsent reports whether a first-transmission pass has anything to emit.
func (e *object) Unsent() bool { return e.buf.Unsent() }

// Waiting reports whether a buffered entry is owed to some neighbor
// that does not hold it yet, which only a later pass can settle.
func (e *object) Waiting() bool { return e.buf.Len() > 0 }

func (e *object) Memory() metrics.Memory { return e.alg.memory(e.x, &e.buf) }

// Retransmits returns how many times an entry has been sent again.
func (e *object) Retransmits() uint64 {
	resent, _ := e.alg.retransmits()
	return resent
}
