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
// engine (object) holds one pair (x, b) itself; a keyspace (perObject)
// holds x in the key's record and b in a side table, only while it is not
// empty. B is the buffer's type, and its zero value the empty buffer.
type algorithm[B any] interface {
	config() *deltaConfig
	// store is Algorithm 1's store(s, o): join s into x and buffer it for
	// further propagation.
	store(x lattice.State, b *B, s lattice.State, origin string)
	// deliver handles one inbound message for the object; replies go to
	// send.
	deliver(x lattice.State, b *B, from string, m Msg, send Sender)
	// ship is a send pass over b: the tick (Sync) when tick is set, a
	// first-transmission pass (Flush) otherwise.
	ship(b *B, send Sender, tick bool)
	// unsent and waiting are Flusher's Unsent and Waiting for one buffer.
	unsent(b *B) bool
	waiting(b *B) bool
	// memory is the footprint of x and b.
	memory(x lattice.State, b *B) metrics.Memory
	retransmits() uint64
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

// holder is the position among the neighbors of from, whose δ-group has
// just arrived, when the engine prunes by receipt (Config.PruneOnReceipt);
// -1 when it does not, and for a sender that is no neighbor.
func (c *deltaConfig) holder(from string) int {
	if !c.cfg.PruneOnReceipt {
		return -1
	}
	return slices.Index(c.cfg.Neighbors, from)
}

// localOp is Algorithm 1's local update (lines 6–8): the δ-mutator of dt
// runs on x, and what it returns is stored unless it is bottom.
func localOp[B any](a algorithm[B], dt workload.Datatype, x lattice.State, b *B, op workload.Op) {
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
func absorb[B any](a algorithm[B], x lattice.State, b *B, d lattice.State, from string) {
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
type object[B any] struct {
	alg algorithm[B]
	x   lattice.State
	buf B
}

var (
	_ Flusher        = (*object[core.Buffer])(nil)
	_ ReachConsulter = (*object[core.Buffer])(nil)
)

func newObject[B any](alg algorithm[B]) *object[B] {
	return &object[B]{alg: alg, x: alg.config().cfg.Datatype.New()}
}

func (e *object[B]) ID() string           { return e.alg.config().cfg.ID }
func (e *object[B]) State() lattice.State { return e.x }

func (e *object[B]) LocalOp(op workload.Op) {
	localOp(e.alg, e.alg.config().cfg.Datatype, e.x, &e.buf, op)
}

func (e *object[B]) Deliver(from string, m Msg, send Sender) {
	e.alg.deliver(e.x, &e.buf, from, m, send)
}

// Sync implements Engine: one tick.
func (e *object[B]) Sync(send Sender) { e.alg.ship(&e.buf, send, true) }

// Flush implements Flusher: first transmissions only, and no tick passes.
func (e *object[B]) Flush(send Sender) {
	if e.Unsent() {
		e.alg.ship(&e.buf, send, false)
	}
}

// Unsent implements Flusher.
func (e *object[B]) Unsent() bool { return e.alg.unsent(&e.buf) }

// Waiting implements Flusher.
func (e *object[B]) Waiting() bool { return e.alg.waiting(&e.buf) }

func (e *object[B]) Memory() metrics.Memory { return e.alg.memory(e.x, &e.buf) }

// Retransmits returns how many times an entry has been sent again.
func (e *object[B]) Retransmits() uint64 { return e.alg.retransmits() }

// ConsultsReach implements ReachConsulter: the acked engine withholds on
// Config.Reach, the clear-after-send one never reads it.
func (e *object[B]) ConsultsReach() bool {
	_, ok := any(e.alg).(*deltaAcked)
	return ok
}
