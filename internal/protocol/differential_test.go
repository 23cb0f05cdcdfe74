package protocol_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// twin is one node run twice over the same history: as one keyspace
// (NewPerObject) and as one standalone engine per key, the form the
// simulator runs. The neighbors are played by the test.
type twin struct {
	t     *testing.T
	rng   *rand.Rand
	inner protocol.Factory
	acked bool
	cfg   protocol.Config
	ks    protocol.Engine
	solo  map[string]protocol.Engine
	// remote is what each neighbor holds of each key, δ-groups come from.
	remote map[[2]string]lattice.State
	// seqs pairs, per key, the keyspace's seq of an entry with the
	// standalone engine's seq of the same entry.
	seqs map[string]map[uint64]uint64
	// pending are the acked δ-groups shipped and not yet acknowledged or
	// lost; delivered are the acknowledgements already delivered once.
	pending, delivered []shipped
}

// shipped is one object's acked δ-group to one neighbor, under the seqs
// each form numbered it with.
type shipped struct {
	to, key  string
	ks, solo []uint64
}

// emitted is one object message an engine sent.
type emitted struct {
	to, key string
	m       protocol.Msg
}

// newTwin builds the twin of r0, whose neighbor r1 reaches r2 under the
// acked engine; under prune it is r2 instead, pruning by receipt, whose
// neighbors r0 and r1 reach each other, so that it defers every forward
// of what either sends it.
func newTwin(t *testing.T, seed int64, inner protocol.Factory, acked, prune bool) *twin {
	nodes := []string{"r0", "r1", "r2"}
	cfg := protocol.Config{ID: "r0", Neighbors: nodes[1:], Nodes: nodes}
	if acked {
		cfg.Reach = protocol.NewReach(cfg.Neighbors)
		cfg.Reach.Set("r1", []string{"r2"})
	}
	if prune {
		cfg = protocol.Config{ID: "r2", Neighbors: nodes[:2], Nodes: nodes, PruneOnReceipt: true}
		cfg.Reach = protocol.NewReach(cfg.Neighbors)
		cfg.Reach.Set("r0", []string{"r1"})
		cfg.Reach.Set("r1", []string{"r0"})
	}
	return &twin{
		t: t, rng: rand.New(rand.NewSource(seed)), inner: inner, acked: acked, cfg: cfg,
		ks:     protocol.NewPerObject(inner, storeObjType)(cfg),
		solo:   map[string]protocol.Engine{},
		remote: map[[2]string]lattice.State{},
		seqs:   map[string]map[uint64]uint64{},
	}
}

// engine returns key's standalone engine, creating it if need be.
func (w *twin) engine(key string) protocol.Engine {
	e, ok := w.solo[key]
	if !ok {
		cfg := w.cfg
		cfg.Datatype = storeObjType(key)
		e = w.inner(cfg)
		w.solo[key] = e
		w.seqs[key] = map[uint64]uint64{}
	}
	return e
}

// sortedKeys returns the keys the node holds, in the keyspace's order.
func (w *twin) sortedKeys() []string {
	keys := make([]string, 0, len(w.solo))
	for k := range w.solo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// op returns a random update of key.
func (w *twin) op(key string) workload.Op {
	switch key[0] {
	case 'c':
		return workload.Inc(key, uint64(1+w.rng.Intn(9)))
	case 's':
		return workload.Add(key, fmt.Sprintf("e%02d", w.rng.Intn(24)))
	default:
		return workload.Put(key, fmt.Sprintf("v%d", w.rng.Intn(1000)))
	}
}

// key returns one of 200 keys: half counters, three tenths sets and a
// fifth map fields, as the store's prefix schema types them.
func (w *twin) key() string {
	i := w.rng.Intn(200)
	return []string{"c", "c", "c", "c", "c", "s", "s", "s", "m", "m"}[i%10] + fmt.Sprintf("/n%03d", i)
}

// localOp applies one update to both forms.
func (w *twin) localOp() {
	key := w.key()
	op := w.op(key)
	w.engine(key).LocalOp(op)
	w.ks.LocalOp(op)
}

// deliver hands both forms the same δ-group from a neighbor: a fresh
// update of the neighbor's, or everything the neighbor holds of the key,
// which may have heard this node's own updates.
func (w *twin) deliver() {
	key, from := w.key(), w.cfg.Neighbors[w.rng.Intn(2)]
	dt := storeObjType(key)
	rs, ok := w.remote[[2]string{from, key}]
	if !ok {
		rs = dt.New()
		w.remote[[2]string{from, key}] = rs
	}
	if w.rng.Intn(3) == 0 {
		rs.Merge(w.engine(key).State())
	}
	d := dt.Delta(rs, from, w.op(key))
	rs.Merge(d)
	if w.rng.Intn(4) == 0 {
		d = rs
	}
	// The acked engine also takes a plain δ-group: digest repair's.
	seqs := []uint64{uint64(w.rng.Intn(1 << 20))}
	repair := !w.acked || w.rng.Intn(5) == 0
	msg := func() protocol.Msg {
		if repair {
			return protocol.NewDeltaMsg(d.Clone())
		}
		return protocol.NewAckedDeltaMsg(d.Clone(), seqs)
	}
	var ksReplies, soloReplies []emitted
	w.ks.(protocol.ObjectDeliverer).DeliverObject(from, []byte(key), msg(), record(&ksReplies, key))
	w.engine(key).Deliver(from, msg(), record(&soloReplies, key))
	w.compareReplies(ksReplies, soloReplies)
}

func record(out *[]emitted, key string) protocol.Sender {
	return func(to string, m protocol.Msg) { *out = append(*out, emitted{to, key, m}) }
}

// compareReplies pins that both forms answered a delivery alike.
func (w *twin) compareReplies(ks, solo []emitted) {
	w.t.Helper()
	if len(ks) != len(solo) {
		w.t.Fatalf("keyspace replied %d times, standalone %d", len(ks), len(solo))
	}
	for i := range ks {
		a, b := ks[i].m.(*protocol.AckMsg), solo[i].m.(*protocol.AckMsg)
		if ks[i].to != solo[i].to || !slices.Equal(a.Seqs, b.Seqs) {
			w.t.Fatalf("keyspace acknowledged %v to %s, standalone %v to %s", a.Seqs, ks[i].to, b.Seqs, solo[i].to)
		}
	}
}

// pass runs a Flush or a Sync over both forms and compares what each sent
// every neighbor: object for object, in key order, the same δ-groups.
func (w *twin) pass(tick bool) {
	w.t.Helper()
	var ks, solo []emitted
	ksSend := func(to string, m protocol.Msg) {
		for _, it := range m.(*protocol.BatchMsg).Items {
			ks = append(ks, emitted{to, it.Key, it.Inner})
		}
	}
	if tick {
		w.ks.Sync(ksSend)
	} else {
		w.ks.(protocol.Flusher).Flush(ksSend)
	}
	for _, key := range w.sortedKeys() {
		if tick {
			w.solo[key].Sync(record(&solo, key))
		} else {
			w.solo[key].(protocol.Flusher).Flush(record(&solo, key))
		}
	}
	for _, to := range w.cfg.Neighbors {
		a, b := sentTo(ks, to), sentTo(solo, to)
		if len(a) != len(b) {
			w.t.Fatalf("tick=%v: keyspace sent %s %d δ-groups, standalone %d", tick, to, len(a), len(b))
		}
		for i := range a {
			w.compareGroup(a[i], b[i])
		}
	}
}

// sentTo returns the messages of out sent to one neighbor, in order.
func sentTo(out []emitted, to string) []emitted {
	var mine []emitted
	for _, e := range out {
		if e.to == to {
			mine = append(mine, e)
		}
	}
	return mine
}

// compareGroup pins that two δ-groups are the same object's same entries:
// equal joins and accounting, and seqs equal up to the object's order.
func (w *twin) compareGroup(a, b emitted) {
	w.t.Helper()
	da, db := deltaOf(a.m), deltaOf(b.m)
	if a.key != b.key || a.m.Kind() != b.m.Kind() || !da.Equal(db) || a.m.Cost() != b.m.Cost() {
		w.t.Fatalf("to %s: keyspace sent %s %s %v, standalone %s %s %v", a.to, a.key, a.m.Kind(), da, b.key, b.m.Kind(), db)
	}
	am, ok := a.m.(*protocol.AckedDeltaMsg)
	if !ok {
		return
	}
	bm := b.m.(*protocol.AckedDeltaMsg)
	w.pair(a.key, am.Seqs, bm.Seqs)
	w.pending = append(w.pending, shipped{a.to, a.key, am.Seqs, bm.Seqs})
}

func deltaOf(m protocol.Msg) lattice.State {
	switch m := m.(type) {
	case *protocol.DeltaMsg:
		return m.Delta
	case *protocol.AckedDeltaMsg:
		return m.Delta
	}
	panic(fmt.Sprintf("unexpected %s", m.Kind()))
}

// pair records that the keyspace's seq ks[i] and the standalone seq
// solo[i] number one entry of key, and checks the pairing is one order:
// an entry seen before keeps its partner, and a new one sorts among the
// key's earlier entries the same way on both sides.
func (w *twin) pair(key string, ks, solo []uint64) {
	w.t.Helper()
	m := w.seqs[key]
	for i := range ks {
		if s, ok := m[ks[i]]; ok {
			if s != solo[i] {
				w.t.Fatalf("%s: keyspace seq %d paired with %d, now with %d", key, ks[i], s, solo[i])
			}
			continue
		}
		for k, s := range m {
			if (k < ks[i]) != (s < solo[i]) || s == solo[i] {
				w.t.Fatalf("%s: keyspace seqs %d, %d against standalone %d, %d", key, k, ks[i], s, solo[i])
			}
		}
		m[ks[i]] = solo[i]
	}
}

// acks delivers some of the pending acknowledgements to both forms, loses
// some, keeps the rest for later, and now and then delivers one again.
func (w *twin) acks() {
	kept := w.pending[:0]
	for _, g := range w.pending {
		switch w.rng.Intn(4) {
		case 0:
			w.ack(g)
		case 1: // lost
		default:
			kept = append(kept, g)
		}
	}
	w.pending = kept
	if len(w.delivered) > 0 && w.rng.Intn(3) == 0 {
		w.ack(w.delivered[w.rng.Intn(len(w.delivered))])
	}
}

// ack delivers the acknowledgement of one shipped δ-group to both forms.
func (w *twin) ack(g shipped) {
	var ksReplies, soloReplies []emitted
	w.ks.(protocol.ObjectDeliverer).DeliverObject(g.to, []byte(g.key), protocol.NewAckMsg(g.ks), record(&ksReplies, g.key))
	w.solo[g.key].Deliver(g.to, protocol.NewAckMsg(g.solo), record(&soloReplies, g.key))
	w.compareReplies(ksReplies, soloReplies)
	w.delivered = append(w.delivered, g)
}

// drain ticks, delivering every acknowledgement, until nothing waits —
// both forms must get there together, however many objects are left.
func (w *twin) drain(step int) {
	w.t.Helper()
	for tick := 0; tick < 4*8; tick++ {
		w.pass(true)
		for _, g := range w.pending {
			w.ack(g)
			w.check(step)
		}
		w.pending = w.pending[:0]
		w.check(step)
		if !w.ks.(protocol.Flusher).Waiting() {
			return
		}
	}
	w.t.Fatalf("step %d: still waiting after a lossless drain", step)
}

// check compares everything either form says about itself.
func (w *twin) check(step int) {
	w.t.Helper()
	ks := w.ks.(protocol.KeyedEngine)
	if ks.NumKeys() != len(w.solo) {
		w.t.Fatalf("step %d: keyspace holds %d keys, standalone %d", step, ks.NumKeys(), len(w.solo))
	}
	var mem metrics.Memory
	var unsent, waiting bool
	var retransmits uint64
	for key, e := range w.solo {
		if st := ks.ObjectState(key); !st.Equal(e.State()) {
			w.t.Fatalf("step %d: %s is %v in the keyspace, %v standalone", step, key, st, e.State())
		}
		m := e.Memory()
		mem.CRDTBytes += m.CRDTBytes + len(key)
		mem.BufferBytes += m.BufferBytes
		mem.MetadataBytes += m.MetadataBytes
		fl := e.(protocol.Flusher)
		unsent = unsent || fl.Unsent()
		waiting = waiting || fl.Waiting()
		retransmits += e.(interface{ Retransmits() uint64 }).Retransmits()
	}
	if got := w.ks.Memory(); got != mem {
		w.t.Fatalf("step %d: keyspace Memory %+v, standalone engines sum to %+v", step, got, mem)
	}
	fl := w.ks.(protocol.Flusher)
	if fl.Unsent() != unsent || fl.Waiting() != waiting {
		w.t.Fatalf("step %d: keyspace unsent=%v waiting=%v, standalone %v %v", step, fl.Unsent(), fl.Waiting(), unsent, waiting)
	}
	if got := w.ks.(interface{ Retransmits() uint64 }).Retransmits(); got != retransmits {
		w.t.Fatalf("step %d: keyspace retransmitted %d times, standalone %d", step, got, retransmits)
	}
}

// TestKeyspaceMatchesStandaloneEngines: a keyspace runs the same algorithm
// as one standalone engine per key, on a record and a side-table slot
// instead of an engine of its own per key. Over seeded histories of local
// updates, deliveries, flushes, ticks and acknowledgements — lost, late
// and repeated ones, then now and then all of them until nothing waits —
// on 200 keys of the store's three datatypes, both
// forms hold the same states, say the same of Unsent and Waiting, ship
// each neighbor the same δ-groups (seqs compared up to each object's
// order: the keyspace numbers from one counter), count the same Memory and
// the same retransmissions. The delta engine runs once more pruning by
// receipt, where a pass leaves deferred forwards queued for the next.
func TestKeyspaceMatchesStandaloneEngines(t *testing.T) {
	seeds, steps := 4, 1500
	if testing.Short() {
		seeds = 1
	}
	for _, c := range []struct {
		name         string
		inner        protocol.Factory
		acked, prune bool
	}{
		{"delta", protocol.NewDeltaBPRR(), false, false},
		{"acked", protocol.NewDeltaAcked(true, true), true, false},
		{"delta/prune", protocol.NewDeltaBPRR(), false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				w := newTwin(t, seed, c.inner, c.acked, c.prune)
				for step := 0; step < steps; step++ {
					switch p := w.rng.Intn(100); {
					case p < 35:
						w.localOp()
					case p < 60:
						w.deliver()
					case p < 72:
						w.pass(false)
					case p < 84:
						w.pass(true)
					case p < 97:
						w.acks()
					case c.acked:
						// r1 stops or starts reaching r2: entries from r1
						// are owed to r2 again, or retired by the next tick.
						var reach []string
						if w.rng.Intn(2) == 0 {
							reach = []string{"r2"}
						}
						w.cfg.Reach.Set("r1", reach)
					}
					w.check(step)
					if step%250 == 249 {
						w.drain(step)
					}
				}
				if w.acked && (len(w.delivered) == 0 || w.ks.(interface{ Retransmits() uint64 }).Retransmits() == 0) {
					t.Fatal("the history never delivered an acknowledgement or never retransmitted")
				}
			}
		})
	}
}
