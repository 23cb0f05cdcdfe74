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

// twin is one node run three times over the same history: as one keyspace
// (NewPerObject) that sends and is delivered messages, as one standalone
// engine per key, the form the simulator runs, and as the keyspace a store
// runs, whose passes hand their δ-groups over as they are (PerObject.Pass)
// and which receives δ-groups and acknowledgements as they are
// (PerObject.Receive, PerObject.Ack). The neighbors are played by the
// test.
type twin struct {
	t     *testing.T
	rng   *rand.Rand
	inner protocol.Factory
	acked bool
	cfg   protocol.Config
	ks    protocol.Engine
	solo  map[string]protocol.Engine
	store *protocol.PerObject
	// waits is the ticks an entry waits for each neighbor's
	// acknowledgement, every form's (ResendAfter); nil is one tick each.
	waits []uint8
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
// each form numbered it with, and its retry note, which its
// acknowledgement echoes.
type shipped struct {
	to, key  string
	ks, solo []uint64
	retry    bool
}

// emitted is one object message an engine sent.
type emitted struct {
	to, key string
	m       protocol.Msg
}

// group is one δ-group as a store's pass hands it over (protocol.Emit), or
// as a message carries it.
type group struct {
	to, key string
	d       lattice.State
	seqs    []uint64
	retry   bool
}

// groupOf is the δ-group an emitted message carries.
func groupOf(e emitted) group {
	g := group{to: e.to, key: e.key, d: deltaOf(e.m)}
	if a, ok := e.m.(*protocol.AckedDeltaMsg); ok {
		g.seqs, g.retry = a.Seqs, a.Retry
	}
	return g
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
		store:  protocol.NewKeyspace(inner, storeObjType, cfg),
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
		if w.waits != nil {
			protocol.ResendAfter(e, w.waits)
		}
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
	w.store.LocalOp(op)
}

// resendAfter has every form wait waits, which the test changes in place,
// as a store's core does (PerObject.ResendAfter).
func (w *twin) resendAfter(waits []uint8) {
	w.waits = waits
	w.ks.(*protocol.PerObject).ResendAfter(waits)
	w.store.ResendAfter(waits)
	for _, e := range w.solo {
		protocol.ResendAfter(e, waits)
	}
}

// endHolds ends every form's holds on forwards toward one neighbor, or
// toward all of them, and reports whether that left a forward due.
func (w *twin) endHolds() bool {
	w.t.Helper()
	to := []string{"", w.cfg.Neighbors[0], w.cfg.Neighbors[1]}[w.rng.Intn(3)]
	ks, store, solo := w.ks.(*protocol.PerObject).EndHolds(to), w.store.EndHolds(to), false
	for _, e := range w.solo {
		solo = protocol.EndHolds(e, to) || solo
	}
	if ks != store || ks != solo {
		w.t.Fatalf("ending the holds toward %q left a forward due: keyspace %v, store's %v, standalone %v", to, ks, store, solo)
	}
	return ks
}

// deliver hands every form the same δ-group from a neighbor: a fresh
// update of the neighbor's, or everything the neighbor holds of the key,
// which may have heard this node's own updates. The forms delivered
// messages must answer alike; the store's acknowledges nothing itself.
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
	w.store.Receive(from, []byte(key), d.Clone())
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
		if ks[i].to != solo[i].to || !slices.Equal(a.Seqs, b.Seqs) || a.Retry != b.Retry {
			w.t.Fatalf("keyspace acknowledged %v (retry %v) to %s, standalone %v (retry %v) to %s",
				a.Seqs, a.Retry, ks[i].to, b.Seqs, b.Retry, solo[i].to)
		}
	}
}

// pass runs a Flush or a Sync over the forms that send messages, and the
// store's pass over the third, and compares what each sent every neighbor:
// object for object, in key order, the same δ-groups — and, between the
// two keyspaces, which number alike, the same entry seqs and retry notes.
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
	var passed []group
	w.store.Pass(tick, func(key string, to int, d lattice.State, seqs []uint64, retry bool) {
		passed = append(passed, group{w.cfg.Neighbors[to], key, d, seqs, retry})
	})
	for _, to := range w.cfg.Neighbors {
		a, b := sentTo(ks, to), sentTo(solo, to)
		if len(a) != len(b) {
			w.t.Fatalf("tick=%v: keyspace sent %s %d δ-groups, standalone %d", tick, to, len(a), len(b))
		}
		for i := range a {
			w.compareGroup(a[i], b[i])
		}
		var p []group
		for _, g := range passed {
			if g.to == to {
				p = append(p, g)
			}
		}
		if len(p) != len(a) {
			w.t.Fatalf("tick=%v: the store's pass emitted %d δ-groups for %s, Sync and Flush sent %d", tick, len(p), to, len(a))
		}
		for i, g := range p {
			if m := groupOf(a[i]); g.key != m.key || !g.d.Equal(m.d) || !slices.Equal(g.seqs, m.seqs) || g.retry != m.retry {
				w.t.Fatalf("tick=%v: the store's pass emitted %+v, the keyspace sent %+v", tick, g, m)
			}
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
	if am.Retry != bm.Retry {
		w.t.Fatalf("to %s: keyspace sent %s with retry %v, standalone %v", a.to, a.key, am.Retry, bm.Retry)
	}
	w.pair(a.key, am.Seqs, bm.Seqs)
	w.pending = append(w.pending, shipped{a.to, a.key, am.Seqs, bm.Seqs, am.Retry})
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

// ack delivers the acknowledgement of one shipped δ-group to every form:
// as an AckMsg that echoes its retry note to the two that take messages,
// as its parts to the store's.
func (w *twin) ack(g shipped) {
	var ksReplies, soloReplies []emitted
	ackMsg := func(seqs []uint64) protocol.Msg {
		m := protocol.NewAckMsg(seqs)
		m.Retry = g.retry
		return m
	}
	w.ks.(protocol.ObjectDeliverer).DeliverObject(g.to, []byte(g.key), ackMsg(g.ks), record(&ksReplies, g.key))
	w.solo[g.key].Deliver(g.to, ackMsg(g.solo), record(&soloReplies, g.key))
	w.store.Ack(g.to, g.key, g.ks, g.retry)
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
	ks := w.ks.(*protocol.PerObject)
	if ks.NumKeys() != len(w.solo) {
		w.t.Fatalf("step %d: keyspace holds %d keys, standalone %d", step, ks.NumKeys(), len(w.solo))
	}
	var mem metrics.Memory
	var unsent, waiting bool
	var retransmits, spurious uint64
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
		spurious += protocol.SpuriousRetransmits(e)
	}
	if got := w.ks.Memory(); got != mem {
		w.t.Fatalf("step %d: keyspace Memory %+v, standalone engines sum to %+v", step, got, mem)
	}
	fl := w.ks.(protocol.Flusher)
	if fl.Unsent() != unsent || fl.Waiting() != waiting {
		w.t.Fatalf("step %d: keyspace unsent=%v waiting=%v, standalone %v %v", step, fl.Unsent(), fl.Waiting(), unsent, waiting)
	}
	if ks.Retransmits() != retransmits || ks.SpuriousRetransmits() != spurious {
		w.t.Fatalf("step %d: keyspace retransmitted %d times (%d spurious), standalone %d (%d)",
			step, ks.Retransmits(), ks.SpuriousRetransmits(), retransmits, spurious)
	}
	p := w.store
	if p.Unsent() != unsent || p.Waiting() != waiting || p.Holds() != ks.Holds() || p.Retransmits() != retransmits ||
		p.SpuriousRetransmits() != spurious || p.Memory() != mem {
		w.t.Fatalf("step %d: the store's keyspace unsent=%v waiting=%v holds=%v, %d retransmits (%d spurious), Memory %+v; the keyspace %v %v %v, %d (%d), %+v",
			step, p.Unsent(), p.Waiting(), p.Holds(), p.Retransmits(), p.SpuriousRetransmits(), p.Memory(),
			unsent, waiting, ks.Holds(), retransmits, spurious, mem)
	}
}

// toggleReach has r1 stop or start reaching the node's other neighbor:
// entries from r1 are owed to that neighbor again, or retired by the next
// tick.
func (w *twin) toggleReach() {
	var reach []string
	if w.rng.Intn(2) == 0 {
		reach = []string{w.cfg.Neighbors[0]}
		if reach[0] == "r1" {
			reach[0] = w.cfg.Neighbors[1]
		}
	}
	w.cfg.Reach.Set("r1", reach)
}

// TestKeyspaceMatchesStandaloneEngines: a keyspace runs the same algorithm
// as one standalone engine per key, on a record and a side-table slot
// instead of an engine of its own per key. Over seeded histories of local
// updates, deliveries, flushes, ticks and acknowledgements — lost, late
// and repeated ones, then now and then all of them until nothing waits —
// on 200 keys of the store's three datatypes, every form holds the same
// states, says the same of Unsent and Waiting, ships each neighbor the
// same δ-groups (seqs compared up to each object's order: the keyspace
// numbers from one counter), counts the same Memory and the same
// retransmissions, spurious ones included. The forms that take messages
// answer each acked δ-group alike; the store's form takes δ-groups and
// acknowledgements as they are (Receive, Ack). Each engine runs once
// more pruning by receipt, where a neighbor's δ-group may empty a buffer
// queued for the next pass, and the plain engine's pass leaves deferred
// forwards queued for the next.
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
		{"acked/prune", protocol.NewDeltaAcked(true, true), true, true},
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
						w.toggleReach()
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

// TestPassMatchesSyncAndFlush: a store's send pass (PerObject.Pass) hands
// its packer the δ-groups that Sync and Flush, a keyspace's and a
// standalone engine's, send as messages — the same neighbor, key, state,
// entry seqs and retry note, pass for pass — so that the store and netsim
// run one algorithm behind two adapters. The histories of
// TestKeyspaceMatchesStandaloneEngines run, under both engines with and
// without pruning by receipt, with the owner's two controls besides:
// under the plain engine, pruning by receipt, a forward is held and its
// hold ended early (EndHolds) toward one neighbor or all; under the acked
// engine each neighbor's wait changes between ticks (ResendAfter), so
// entries are sent again after waits of one to four ticks, and
// acknowledgements, some of resends, arrive between passes.
func TestPassMatchesSyncAndFlush(t *testing.T) {
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
		{"delta/prune", protocol.NewDeltaBPRR(), false, true},
		{"acked", protocol.NewDeltaAcked(true, true), true, false},
		{"acked/prune", protocol.NewDeltaAcked(true, true), true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			released, waitChanges, resent, spurious, acked := 0, 0, uint64(0), uint64(0), 0
			for seed := int64(1); seed <= int64(seeds); seed++ {
				w := newTwin(t, seed, c.inner, c.acked, c.prune)
				if c.acked {
					w.resendAfter([]uint8{1, 1})
				}
				for step := 0; step < steps; step++ {
					switch p := w.rng.Intn(100); {
					case p < 35:
						w.localOp()
					case p < 55:
						w.deliver()
					case p < 67:
						w.pass(false)
					case p < 79:
						w.pass(true)
					case p < 92:
						w.acks()
					case c.acked:
						// A neighbor's link measures another round trip.
						w.waits[w.rng.Intn(2)] = uint8(1 + w.rng.Intn(4))
						waitChanges++
					default:
						if w.endHolds() {
							released++
						}
					}
					w.check(step)
				}
				resent += w.store.Retransmits()
				spurious += w.store.SpuriousRetransmits()
				acked += len(w.delivered)
			}
			if c.prune && !c.acked && released == 0 {
				t.Fatal("no history ended a hold on a forward")
			}
			if c.acked && (resent == 0 || spurious == 0 || acked == 0 || waitChanges == 0) {
				t.Fatalf("the histories resent %d entries (%d spurious) and delivered %d acknowledgements over %d changes of wait",
					resent, spurious, acked, waitChanges)
			}
		})
	}
}
