package protocol

import (
	"slices"

	"crdtsync/internal/core"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/workload"
)

// algorithm is Algorithm 1 over one object: what a local update, an
// inbound message and a send pass do to the object's state x and its
// δ-buffer b, which the caller holds. Its two implementations are the only
// code that runs the algorithm: *deltaBased clears the buffer after every
// send, *deltaAcked keeps each entry until it is acknowledged. A standalone
// engine (object) holds one pair (x, b) itself; a keyspace (PerObject)
// holds x in the key's record and b in a side table, only while it is not
// empty.
type algorithm interface {
	config() *deltaConfig
	// store is Algorithm 1's store(s, o): join s into x and buffer it for
	// further propagation.
	store(x lattice.State, b *core.Buffer, s lattice.State, origin string)
	// deliver handles one inbound message for the object; replies go to
	// send.
	deliver(x lattice.State, b *core.Buffer, from string, m Msg, send Sender)
	// ship is a send pass over b: the tick (Sync) when tick is set, a
	// first-transmission pass (Flush) otherwise. It leaves the entries the
	// next pass ships due (core.Buffer.Unsent), and b empty once no later
	// pass has anything to do.
	ship(b *core.Buffer, send Sender, tick bool)
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
	e.alg.deliver(e.x, &e.buf, from, m, send)
}

// Sync implements Engine: one tick.
func (e *object) Sync(send Sender) { e.alg.ship(&e.buf, send, true) }

// Flush is PerObject.Flush for the one object: first transmissions only,
// and no tick passes.
func (e *object) Flush(send Sender) {
	if e.Unsent() {
		e.alg.ship(&e.buf, send, false)
	}
}

// Unsent reports whether Flush would have anything to emit.
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
