package protocol

import (
	"sort"

	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/vclock"
	"crdtsync/internal/workload"
)

// sbDigestMsg is a Scuttlebutt reconciliation request: the sender's summary
// vector, plus (Scuttlebutt-GC only) the matrix of last-seen summary
// vectors used for safe delta deletion.
type sbDigestMsg struct {
	Vec    *vclock.VClock
	Matrix map[string]*vclock.VClock // nil for plain Scuttlebutt
	cost   metrics.Transmission
}

// Kind implements Msg.
func (m *sbDigestMsg) Kind() string { return "sb-digest" }

// Cost implements Msg.
func (m *sbDigestMsg) Cost() metrics.Transmission { return m.cost }

// sbItem is one key-delta pair of the Scuttlebutt store: the version pair
// ⟨i, s⟩ as key and the optimal delta produced by the original δ-mutator as
// value.
type sbItem struct {
	Dot   vclock.Dot
	Delta lattice.State
}

// sbDeltasMsg is a Scuttlebutt reconciliation reply: all key-delta pairs
// the replier holds that the requester's summary vector does not cover.
type sbDeltasMsg struct {
	Items []sbItem
	cost  metrics.Transmission
}

// Kind implements Msg.
func (m *sbDeltasMsg) Kind() string { return "sb-deltas" }

// Cost implements Msg.
func (m *sbDeltasMsg) Cost() metrics.Transmission { return m.cost }

// scuttlebutt implements the Scuttlebutt anti-entropy baseline of §V-B:
// values are the optimal deltas of δ-mutators, keys are version pairs, and
// reconciliation exchanges a summary vector followed by the uncovered
// key-delta pairs. The original protocol never deletes store entries; the
// GC variant tracks what every node has seen (a map of summary vectors,
// gossiped inside digests) and deletes deltas seen by all nodes.
type scuttlebutt struct {
	cfg   Config
	gc    bool
	x     lattice.State
	seq   uint64
	store map[vclock.Dot]lattice.State
	// known summarizes contiguously known dots per actor.
	known *vclock.VClock
	// seen maps node id → last known summary vector of that node
	// (GC variant only; seen[self] is the live known vector).
	seen map[string]*vclock.VClock
}

// NewScuttlebutt returns the plain Scuttlebutt engine factory.
func NewScuttlebutt() Factory { return newScuttlebutt(false) }

// NewScuttlebuttGC returns the garbage-collecting Scuttlebutt-GC factory.
func NewScuttlebuttGC() Factory { return newScuttlebutt(true) }

func newScuttlebutt(gc bool) Factory {
	return func(cfg Config) Engine {
		e := &scuttlebutt{
			cfg:   cfg,
			gc:    gc,
			x:     cfg.Datatype.New(),
			store: make(map[vclock.Dot]lattice.State),
			known: vclock.New(),
		}
		if gc {
			e.seen = make(map[string]*vclock.VClock)
			for _, n := range cfg.Nodes {
				if n == cfg.ID {
					e.seen[n] = e.known
				} else {
					e.seen[n] = vclock.New()
				}
			}
		}
		return e
	}
}

func (e *scuttlebutt) ID() string           { return e.cfg.ID }
func (e *scuttlebutt) State() lattice.State { return e.x }

func (e *scuttlebutt) LocalOp(op workload.Op) {
	d := e.cfg.Datatype.Delta(e.x, e.cfg.ID, op)
	if d.IsBottom() {
		return
	}
	e.x.Merge(d)
	e.seq++
	dot := vclock.Dot{Actor: e.cfg.ID, Seq: e.seq}
	e.store[dot] = d
	e.known.Set(e.cfg.ID, e.seq)
}

func (e *scuttlebutt) Sync(send Sender) {
	for _, j := range e.cfg.Neighbors {
		msg := &sbDigestMsg{Vec: e.known.Clone()}
		// The summary vector is itself a map of N entries; it counts
		// against the paper's "entries transmitted" metric, which is why
		// Scuttlebutt loses to state-based on GCounter (§V-B1).
		meta := e.cfg.vectorBytes()
		elems := len(e.cfg.Nodes)
		if e.gc {
			msg.Matrix = make(map[string]*vclock.VClock, len(e.seen))
			for n, v := range e.seen {
				msg.Matrix[n] = v.Clone()
			}
			// A map of N vectors: the paper's N²P metadata cost.
			meta += len(e.cfg.Nodes) * e.cfg.vectorBytes()
			elems += len(e.cfg.Nodes) * len(e.cfg.Nodes)
		}
		msg.cost = metrics.Transmission{Messages: 1, Elements: elems, MetadataBytes: meta}
		send(j, msg)
	}
}

func (e *scuttlebutt) Deliver(from string, m Msg, send Sender) {
	switch msg := m.(type) {
	case *sbDigestMsg:
		e.deliverDigest(from, msg, send)
	case *sbDeltasMsg:
		e.deliverDeltas(msg)
	}
}

func (e *scuttlebutt) deliverDigest(from string, msg *sbDigestMsg, send Sender) {
	if e.gc {
		// Track what the sender (and, transitively, everyone it heard
		// about) has seen, then drop deltas seen by all nodes.
		for n, v := range msg.Matrix {
			if n == e.cfg.ID {
				continue // our own entry is the live known vector
			}
			cur, ok := e.seen[n]
			if !ok {
				cur = vclock.New()
				e.seen[n] = cur
			}
			cur.Merge(v)
		}
		if cur, ok := e.seen[from]; ok && from != e.cfg.ID {
			cur.Merge(msg.Vec)
		}
		e.collectGarbage()
	}
	// Reply with every key-delta pair the requester does not cover,
	// in (actor, seq) order so the receiver advances contiguously.
	items := make([]sbItem, 0)
	for dot, d := range e.store {
		if !msg.Vec.Contains(dot) {
			items = append(items, sbItem{Dot: dot, Delta: d.Clone()})
		}
	}
	if len(items) == 0 {
		return
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Dot.Actor != items[j].Dot.Actor {
			return items[i].Dot.Actor < items[j].Dot.Actor
		}
		return items[i].Dot.Seq < items[j].Dot.Seq
	})
	cost := metrics.Transmission{Messages: 1}
	for _, it := range items {
		cost.Elements += it.Delta.Elements()
		cost.PayloadBytes += it.Delta.SizeBytes()
		cost.MetadataBytes += e.cfg.idBytes() + 8 // the version pair
	}
	send(from, &sbDeltasMsg{Items: items, cost: cost})
}

func (e *scuttlebutt) deliverDeltas(msg *sbDeltasMsg) {
	for _, it := range msg.Items {
		if e.known.Contains(it.Dot) {
			continue
		}
		if _, ok := e.store[it.Dot]; ok {
			continue
		}
		e.store[it.Dot] = it.Delta.Clone()
		e.x.Merge(it.Delta)
		e.advance(it.Dot.Actor)
	}
	if e.gc {
		e.collectGarbage()
	}
}

// advance extends the contiguous summary for actor as far as the store
// allows.
func (e *scuttlebutt) advance(actor string) {
	for {
		next := vclock.Dot{Actor: actor, Seq: e.known.Get(actor) + 1}
		if _, ok := e.store[next]; !ok {
			return
		}
		e.known.Set(actor, next.Seq)
	}
}

// collectGarbage deletes store entries seen by every node in the
// membership, the safe-delete rule of Scuttlebutt-GC.
func (e *scuttlebutt) collectGarbage() {
	for dot := range e.store {
		seenByAll := true
		for _, n := range e.cfg.Nodes {
			if !e.seen[n].Contains(dot) {
				seenByAll = false
				break
			}
		}
		if seenByAll {
			delete(e.store, dot)
		}
	}
}

func (e *scuttlebutt) Memory() metrics.Memory {
	buf := 0
	for _, d := range e.store {
		buf += d.SizeBytes() + e.cfg.idBytes() + 8
	}
	meta := e.cfg.vectorBytes()
	if e.gc {
		meta += len(e.cfg.Nodes) * e.cfg.vectorBytes()
	}
	return metrics.Memory{
		CRDTBytes:     e.x.SizeBytes(),
		BufferBytes:   buf,
		MetadataBytes: meta,
	}
}
