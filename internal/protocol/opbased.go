package protocol

import (
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/vclock"
	"crdtsync/internal/workload"
)

// taggedOp is one operation in flight through the causal broadcast
// middleware: the operation payload tagged with its dot and the vector
// clock summarizing its causal past.
type taggedOp struct {
	Dot vclock.Dot
	// Dep is the origin's vector clock immediately before the operation.
	Dep *vclock.VClock
	// Payload is the effect of the operation, applied by join at every
	// replica exactly once (exactly-once causal delivery).
	Payload lattice.State
	// OpBytes is the wire size of the operation itself.
	OpBytes int
}

// opsMsg carries a batch of tagged operations.
type opsMsg struct {
	Ops  []taggedOp
	cost metrics.Transmission
}

// Kind implements Msg.
func (m *opsMsg) Kind() string { return "ops" }

// Cost implements Msg.
func (m *opsMsg) Cost() metrics.Transmission { return m.cost }

// fwdEntry is a transmission-buffer entry: an operation plus the set of
// peers known to have it (so unnecessary transmissions are avoided, the
// best-possible store-and-forward middleware described in §V-B).
type fwdEntry struct {
	op   taggedOp
	seen map[string]bool
}

// opBased is the operation-based synchronization baseline: a
// store-and-forward causal broadcast middleware. Each operation is tagged
// with a vector clock; recipients deliver it only after its causal past,
// and forward it to neighbors that have not seen it yet.
type opBased struct {
	cfg Config
	x   lattice.State
	// v summarizes the operations delivered locally.
	v *vclock.VClock
	// fwd is the transmission buffer.
	fwd []*fwdEntry
	// fwdIndex finds transmission-buffer entries by dot.
	fwdIndex map[vclock.Dot]*fwdEntry
	// pending holds received but not yet causally deliverable ops.
	pending map[vclock.Dot]taggedOp
	// pendingFrom remembers who first sent each pending op.
	pendingFrom map[vclock.Dot]string
}

// NewOpBased returns the operation-based engine factory.
func NewOpBased() Factory {
	return func(cfg Config) Engine {
		return &opBased{
			cfg:         cfg,
			x:           cfg.Datatype.New(),
			v:           vclock.New(),
			fwdIndex:    make(map[vclock.Dot]*fwdEntry),
			pending:     make(map[vclock.Dot]taggedOp),
			pendingFrom: make(map[vclock.Dot]string),
		}
	}
}

func (e *opBased) ID() string           { return e.cfg.ID }
func (e *opBased) State() lattice.State { return e.x }

func (e *opBased) LocalOp(op workload.Op) {
	payload := e.cfg.Datatype.Delta(e.x, e.cfg.ID, op)
	if payload.IsBottom() {
		return
	}
	dep := e.v.Clone()
	dot := e.v.Next(e.cfg.ID)
	e.x.Merge(payload)
	e.buffer(taggedOp{Dot: dot, Dep: dep, Payload: payload, OpBytes: e.cfg.Datatype.OpBytes(op)}, e.cfg.ID)
}

// buffer adds a delivered op to the transmission buffer, marking self and
// the immediate sender as having seen it.
func (e *opBased) buffer(op taggedOp, from string) {
	entry := &fwdEntry{op: op, seen: map[string]bool{e.cfg.ID: true}}
	if from != e.cfg.ID {
		entry.seen[from] = true
	}
	e.fwd = append(e.fwd, entry)
	e.fwdIndex[op.Dot] = entry
}

func (e *opBased) Sync(send Sender) {
	for _, j := range e.cfg.Neighbors {
		var batch []taggedOp
		for _, entry := range e.fwd {
			if !entry.seen[j] {
				batch = append(batch, entry.op)
				entry.seen[j] = true // channels are reliable
			}
		}
		if len(batch) == 0 {
			continue
		}
		// One vector's worth of entries per message counts against the
		// "entries transmitted" metric (causal metadata a batching
		// middleware must still ship), while the per-op vector tags of
		// the paper's NPU model count as metadata bytes.
		cost := metrics.Transmission{Messages: 1, Elements: len(e.cfg.Nodes)}
		for _, op := range batch {
			cost.Elements += op.Payload.Elements()
			cost.PayloadBytes += op.OpBytes
			cost.MetadataBytes += e.cfg.vectorBytes() + e.cfg.idBytes() + 8
		}
		send(j, &opsMsg{Ops: batch, cost: cost})
	}
	e.pruneFwd()
}

// pruneFwd drops transmission-buffer entries already seen by every
// neighbor.
func (e *opBased) pruneFwd() {
	kept := e.fwd[:0]
	for _, entry := range e.fwd {
		all := true
		for _, j := range e.cfg.Neighbors {
			if !entry.seen[j] {
				all = false
				break
			}
		}
		if all {
			delete(e.fwdIndex, entry.op.Dot)
		} else {
			kept = append(kept, entry)
		}
	}
	e.fwd = kept
}

func (e *opBased) Deliver(from string, m Msg, _ Sender) {
	om, ok := m.(*opsMsg)
	if !ok {
		return
	}
	for _, op := range om.Ops {
		if e.v.Contains(op.Dot) {
			// Already delivered: just record that the sender has it.
			if entry, present := e.fwdIndex[op.Dot]; present {
				entry.seen[from] = true
			}
			continue
		}
		if _, present := e.pending[op.Dot]; present {
			continue
		}
		e.pending[op.Dot] = op
		e.pendingFrom[op.Dot] = from
	}
	e.drainPending()
}

// drainPending delivers every causally ready pending operation, repeating
// until a fixpoint is reached.
func (e *opBased) drainPending() {
	for {
		progressed := false
		for dot, op := range e.pending {
			if !e.v.CausallyReady(dot, op.Dep) {
				continue
			}
			e.x.Merge(op.Payload)
			e.v.Set(dot.Actor, dot.Seq)
			e.buffer(op, e.pendingFrom[dot])
			delete(e.pending, dot)
			delete(e.pendingFrom, dot)
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

func (e *opBased) Memory() metrics.Memory {
	buf, meta := 0, e.cfg.vectorBytes() // the local vector clock
	for _, entry := range e.fwd {
		buf += entry.op.OpBytes
		meta += e.cfg.vectorBytes() + e.cfg.idBytes() + 8
	}
	for _, op := range e.pending {
		buf += op.OpBytes
		meta += e.cfg.vectorBytes() + e.cfg.idBytes() + 8
	}
	return metrics.Memory{
		CRDTBytes:     e.x.SizeBytes(),
		BufferBytes:   buf,
		MetadataBytes: meta,
	}
}
