package main

import (
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"crdtsync"
	"crdtsync/internal/codec"
	"crdtsync/internal/core"
	"crdtsync/internal/lattice"
	"crdtsync/internal/netsim"
	"crdtsync/internal/protocol"
	"crdtsync/internal/topology"
	"crdtsync/internal/workload"
)

// The replay attribution prices each layer's public functions on the
// run's own data: the first data frames the tap saw and the first window
// ops, replayed single-threaded on shadow objects after the cluster has
// been closed, so nothing else allocates or competes for the cores.

// replayOps caps the window ops replayed.
const replayOps = 20000

// replayBudget is the least time one measurement runs for.
const replayBudget = 20 * time.Millisecond

// stopwatch accumulates the timed part of a measurement and the heap
// allocations made inside it.
type stopwatch struct {
	elapsed time.Duration
	mallocs uint64
	t0      time.Time
	m0      uint64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (sw *stopwatch) start() { sw.m0, sw.t0 = mallocs(), time.Now() }
func (sw *stopwatch) stop() {
	sw.elapsed += time.Since(sw.t0)
	sw.mallocs += mallocs() - sw.m0
}

// measure repeats body — which times its own hot part with the stopwatch
// and returns how many items that part handled — until replayBudget of
// timed work has accumulated. It returns ns and allocations per item.
func measure(body func(sw *stopwatch) int) (ns, allocs float64) {
	var sw stopwatch
	items := 0
	for sw.elapsed < replayBudget {
		n := body(&sw)
		if n == 0 {
			return 0, 0
		}
		items += n
	}
	return float64(sw.elapsed) / float64(items), float64(sw.mallocs) / float64(items)
}

// objType mirrors the store's prefix schema (crdtsync keeps it private).
func objType(key string) workload.Datatype {
	switch {
	case strings.HasPrefix(key, crdtsync.CounterPrefix):
		return workload.GCounterType{}
	case strings.HasPrefix(key, crdtsync.SetPrefix):
		return workload.GSetType{}
	default:
		return workload.LWWMapType{}
	}
}

// raw is the op as the layers below the handles see it.
func (o op) raw() workload.Op {
	switch o.kind {
	case opInc, opProbe:
		return workload.Inc(o.key(), o.n)
	case opAdd:
		return workload.Add(o.key(), o.arg)
	default:
		return workload.Put(o.key(), o.arg)
	}
}

func engineFactory(e crdtsync.Engine) protocol.Factory {
	if e == crdtsync.EngineDelta {
		return protocol.NewDeltaBPRR()
	}
	return protocol.NewDeltaAcked(true, true)
}

// item is one object message out of a tapped frame.
type item struct {
	key []byte
	msg protocol.Msg
	// delta is the δ-group it carries; nil for acknowledgements.
	delta lattice.State
}

func deltaOf(m protocol.Msg) lattice.State {
	switch d := m.(type) {
	case *protocol.AckedDeltaMsg:
		return d.Delta
	case *protocol.DeltaMsg:
		return d.Delta
	}
	return nil
}

// blackHole is a connection that accepts every write and delivers nothing.
type blackHole struct{ net.Conn }

func (blackHole) Write(p []byte) (int, error) { return len(p), nil }
func (blackHole) Close() error                { return nil }

// replay runs every attribution measurement and returns them by metric name.
func replay(s spec, seed int64, seconds float64, frames [][]byte, outDir string) (map[string]float64, error) {
	out := make(map[string]float64)
	ids := []string{"r0", "r1", "r2"}

	// Inputs: the preload ops (state the window ops meet), the first
	// window ops, and the frames' items.
	var preload, ops []op
	g := preloadGen(seed, s)
	for i := 0; i < s.preload; i++ {
		preload = append(preload, g.preloadOp(i))
	}
	g = windowGen(seed, s)
	for i := 0; i < s.updates(seconds) && i < replayOps; i++ {
		ops = append(ops, g.next())
	}
	var items []item
	var view codec.FrameView
	for _, f := range frames {
		if err := codec.UnpackFrame(f, numShards, &view); err != nil {
			return nil, err
		}
		for _, grp := range view.Groups() {
			for i := range grp.Items {
				iv := &grp.Items[i]
				m, err := iv.Msg()
				if err != nil {
					return nil, err
				}
				items = append(items, item{key: append([]byte(nil), iv.Key...), msg: m, delta: deltaOf(m)})
			}
		}
	}
	view.Reset()
	var deltas []item
	for _, it := range items {
		if it.delta != nil {
			deltas = append(deltas, it)
		}
	}
	// shadows builds one fresh state per δ-group's object.
	shadows := func() []lattice.State {
		byKey := make(map[string]lattice.State)
		targets := make([]lattice.State, len(deltas))
		for i, it := range deltas {
			st := byKey[string(it.key)]
			if st == nil {
				st = objType(string(it.key)).New()
				byKey[string(it.key)] = st
			}
			targets[i] = st
		}
		return targets
	}

	// workload: the δ-mutators.
	out["workload.delta_ns_per_op"], _ = measure(func(sw *stopwatch) int {
		states := make(map[string]lattice.State)
		for _, o := range preload {
			k := o.key()
			st := states[k]
			if st == nil {
				st = objType(k).New()
				states[k] = st
			}
			st.Merge(objType(k).Delta(st, ids[o.replica], o.raw()))
		}
		type call struct {
			dt workload.Datatype
			st lattice.State
			op workload.Op
			id string
		}
		calls := make([]call, len(ops))
		for i, o := range ops {
			k := o.key()
			st := states[k]
			if st == nil {
				st = objType(k).New()
				states[k] = st
			}
			calls[i] = call{objType(k), st, o.raw(), ids[o.replica]}
		}
		sw.start()
		for _, c := range calls {
			c.dt.Delta(c.st, c.id, c.op)
		}
		sw.stop()
		return len(calls)
	})

	// lattice and core, on the δ-groups the frames carried.
	out["lattice.merge_ns_per_item"], out["lattice.merge_allocs_per_item"] = measure(func(sw *stopwatch) int {
		targets := shadows()
		sw.start()
		for i, it := range deltas {
			targets[i].Merge(it.delta)
		}
		sw.stop()
		return len(deltas)
	})
	out["lattice.leq_ns_per_item"], _ = measure(func(sw *stopwatch) int {
		targets := shadows()
		for i, it := range deltas {
			targets[i].Merge(it.delta)
		}
		sw.start()
		for i, it := range deltas {
			it.delta.Leq(targets[i])
		}
		sw.stop()
		return len(deltas)
	})
	out["core.delta_ns_per_item"], out["core.delta_allocs_per_item"] = measure(func(sw *stopwatch) int {
		targets := shadows()
		sw.start()
		for i, it := range deltas {
			core.Delta(it.delta, targets[i])
		}
		sw.stop()
		return len(deltas)
	})
	out["core.buffer_add_ns_per_item"], _ = measure(func(sw *stopwatch) int {
		var b core.Buffer
		sw.start()
		for _, it := range deltas {
			b.Add(it.delta, "r1")
		}
		sw.stop()
		return len(deltas)
	})

	// protocol: the per-object engine the stores run.
	newEngine := func(id string) protocol.Engine {
		var neighbors []string
		for _, n := range ids {
			if n != id {
				neighbors = append(neighbors, n)
			}
		}
		return protocol.NewPerObject(engineFactory(s.engine), objType)(protocol.Config{ID: id, Neighbors: neighbors, Nodes: ids})
	}
	var batches []protocol.ShardItem // Sync output, kept for the encode measurement
	batchItems := 0
	out["protocol.localop_ns_per_op"], _ = measure(func(sw *stopwatch) int {
		e := newEngine("r0")
		for _, o := range preload {
			e.LocalOp(o.raw())
		}
		e.Sync(func(string, protocol.Msg) {})
		sw.start()
		for _, o := range ops {
			e.LocalOp(o.raw())
		}
		sw.stop()
		return len(ops)
	})
	out["protocol.sync_ns_per_item"], _ = measure(func(sw *stopwatch) int {
		e := newEngine("r0")
		for _, o := range ops {
			e.LocalOp(o.raw())
		}
		batches, batchItems = batches[:0], 0
		sw.start()
		e.Sync(func(_ string, m protocol.Msg) {
			batches = append(batches, protocol.ShardItem{Shard: 1, Msg: m})
			batchItems += len(m.(*protocol.BatchMsg).Items)
		})
		sw.stop()
		return batchItems
	})
	out["protocol.deliver_ns_per_item"], out["protocol.deliver_allocs_per_item"] = measure(func(sw *stopwatch) int {
		od := newEngine("r2").(protocol.ObjectDeliverer)
		discard := func(string, protocol.Msg) {}
		sw.start()
		for _, it := range items {
			od.DeliverObject("r0", it.key, it.msg, discard)
		}
		sw.stop()
		return len(items)
	})

	// codec: item encode, frame unpack, item decode, snapshot files.
	var encErr error
	out["codec.encode_ns_per_item"], _ = measure(func(sw *stopwatch) int {
		var buf []byte
		sw.start()
		for _, b := range batches {
			if buf, encErr = codec.AppendShardItem(buf[:0], b); encErr != nil {
				break
			}
		}
		sw.stop()
		return batchItems
	})
	if encErr != nil {
		return nil, encErr
	}
	out["codec.unpack_ns_per_item"], out["codec.unpack_allocs_per_item"] = measure(func(sw *stopwatch) int {
		n := 0
		sw.start()
		for _, f := range frames {
			codec.UnpackFrame(f, numShards, &view)
			n += view.NumItems()
		}
		sw.stop()
		return n
	})
	out["codec.decode_ns_per_item"], _ = measure(func(sw *stopwatch) int {
		n := 0
		for _, f := range frames {
			codec.UnpackFrame(f, numShards, &view)
			sw.start()
			for _, grp := range view.Groups() {
				for i := range grp.Items {
					grp.Items[i].Msg()
					n++
				}
			}
			sw.stop()
		}
		return n
	})
	view.Reset()

	// transport: one store, through the public API. A peerless store for
	// the local paths, one with a black-hole peer for the sync tick, one
	// with a snapshot directory for snapshot and restore.
	open := func(extra ...crdtsync.Option) (*crdtsync.Store, error) {
		return crdtsync.Open(append([]crdtsync.Option{
			crdtsync.WithShards(numShards), crdtsync.WithEngine(s.engine), crdtsync.WithSyncEvery(time.Hour),
		}, extra...)...)
	}
	one := func(o op) op { o.replica = 0; return o }
	var openErr error
	out["transport.update_ns_per_op"], _ = measure(func(sw *stopwatch) int {
		st, err := open()
		if err != nil {
			openErr = err
			return 0
		}
		defer st.Close()
		stores := []*crdtsync.Store{st}
		for _, o := range preload {
			one(o).issue(stores)
		}
		sw.start()
		for _, o := range ops {
			one(o).issue(stores)
		}
		sw.stop()
		return len(ops)
	})
	out["transport.syncnow_ns_per_item"], _ = measure(func(sw *stopwatch) int {
		st, err := open(crdtsync.WithID("r0"), crdtsync.WithPeers(map[string]string{"r1": "black-hole"}),
			crdtsync.WithDial(func(string, string) (net.Conn, error) { return blackHole{}, nil }))
		if err != nil {
			openErr = err
			return 0
		}
		defer st.Close()
		stores := []*crdtsync.Store{st}
		touched := make(map[string]struct{})
		for _, o := range ops {
			one(o).issue(stores)
			touched[o.key()] = struct{}{}
		}
		sw.start()
		st.SyncNow()
		sw.stop()
		return len(touched)
	})
	if openErr != nil {
		return nil, openErr
	}

	dir, err := os.MkdirTemp(outDir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := open(crdtsync.WithSnapshotDir(dir), crdtsync.WithSnapshotEvery(time.Hour))
	if err != nil {
		return nil, err
	}
	stores := []*crdtsync.Store{st}
	for _, o := range preload {
		one(o).issue(stores)
	}
	for _, o := range ops {
		one(o).issue(stores)
	}
	keys := st.Keys()
	out["transport.view_ns"], _ = measure(func(sw *stopwatch) int {
		sw.start()
		for _, k := range keys {
			st.View(k, func(crdtsync.State) {})
		}
		sw.stop()
		return len(keys)
	})
	perSec := func(nsPerKey float64) float64 { return safeDiv(1e9, nsPerKey) }
	ns, _ := measure(func(sw *stopwatch) int {
		n := 0
		sw.start()
		st.Scan("", func(string, crdtsync.State) bool { n++; return true })
		sw.stop()
		return n
	})
	out["transport.scan_keys_per_s"] = perSec(ns)
	ns, _ = measure(func(sw *stopwatch) int {
		n := 0
		sw.start()
		for sh := 0; sh < st.NumShards(); sh++ {
			st.Query(sh, func(string, crdtsync.State) bool { n++; return true })
		}
		sw.stop()
		return n
	})
	out["transport.query_keys_per_s"] = perSec(ns)

	// Snapshot codec on the same objects, as one file.
	var snap []byte
	ns, _ = measure(func(sw *stopwatch) int {
		sw.start()
		w := codec.NewSnapshotWriter(0, 1, len(keys))
		st.Scan("", func(k string, state crdtsync.State) bool { w.Add(k, state); return true })
		snap = w.Bytes()
		sw.stop()
		return len(snap)
	})
	out["codec.snapshot_encode_mb_s"] = safeDiv(1e3, ns) // bytes/ns → MB/s
	ns, _ = measure(func(sw *stopwatch) int {
		sw.start()
		codec.DecodeSnapshot(snap, func(string, lattice.State) error { return nil })
		sw.stop()
		return len(snap)
	})
	out["codec.snapshot_decode_mb_s"] = safeDiv(1e3, ns)

	t0 := time.Now()
	err = st.SnapshotNow()
	out["transport.snapshot_ms"] = float64(time.Since(t0)) / 1e6
	st.Close()
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	st, err = open(crdtsync.WithSnapshotDir(dir), crdtsync.WithSnapshotEvery(time.Hour))
	out["transport.restore_ms"] = float64(time.Since(t0)) / 1e6
	if err != nil {
		return nil, err
	}
	st.Close()
	return out, nil
}

// simClassicOverBPRR is the paper-fidelity count (Fig. 7, GSet on the
// partial mesh): elements shipped by classic delta-based synchronization
// over those shipped by BP+RR. The simulator is deterministic, so the
// ratio repeats exactly; it moves only if Δ-minimality is lost.
func simClassicOverBPRR() float64 {
	const nodes, degree, rounds, quiet, topoSeed = 15, 4, 100, 60, 42
	elements := func(f protocol.Factory) float64 {
		sim := netsim.New(topology.PartialMesh(nodes, degree, topoSeed), f, workload.GSetType{}, netsim.Options{Seed: topoSeed})
		sim.Run(rounds, workload.GSetGen{})
		sim.RunQuiet(quiet)
		return float64(sim.Collector().TotalSent().Elements)
	}
	return safeDiv(elements(protocol.NewDeltaClassic()), elements(protocol.NewDeltaBPRR()))
}

func replayMetrics() []metric {
	defs := []struct{ name, unit, better, doc string }{
		{"workload.delta_ns_per_op", "ns", "lower", "Datatype.Delta, the δ-mutator, per window op"},
		{"lattice.merge_ns_per_item", "ns", "lower", "State.Merge of one tapped δ-group into a fresh shadow object"},
		{"lattice.merge_allocs_per_item", "count", "lower", "heap allocations of the same"},
		{"lattice.leq_ns_per_item", "ns", "lower", "State.Leq of a δ-group against a shadow that already holds it (the RR redundancy check)"},
		{"core.delta_ns_per_item", "ns", "lower", "core.Delta(δ-group, shadow): the minimum delta RR extracts"},
		{"core.delta_allocs_per_item", "count", "lower", "heap allocations of the same"},
		{"core.buffer_add_ns_per_item", "ns", "lower", "core.Buffer.Add per δ-group"},
		{"protocol.localop_ns_per_op", "ns", "lower", "per-object engine LocalOp per window op (workload's engine)"},
		{"protocol.sync_ns_per_item", "ns", "lower", "per-object engine Sync ÷ object messages emitted"},
		{"protocol.deliver_ns_per_item", "ns", "lower", "per-object engine DeliverObject per tapped item, into a fresh engine"},
		{"protocol.deliver_allocs_per_item", "count", "lower", "heap allocations of the same"},
		{"codec.encode_ns_per_item", "ns", "lower", "codec.AppendShardItem of the Sync output ÷ object messages"},
		{"codec.unpack_ns_per_item", "ns", "lower", "codec.UnpackFrame over the tapped frames ÷ items"},
		{"codec.unpack_allocs_per_item", "count", "lower", "heap allocations of the same"},
		{"codec.decode_ns_per_item", "ns", "lower", "ItemView.Msg per item of the tapped frames"},
		{"codec.snapshot_encode_mb_s", "MB/s", "higher", "codec.SnapshotWriter over the replay store's objects"},
		{"codec.snapshot_decode_mb_s", "MB/s", "higher", "codec.DecodeSnapshot of the same file"},
		{"transport.update_ns_per_op", "ns", "lower", "typed-handle update on a peerless store per window op"},
		{"transport.syncnow_ns_per_item", "ns", "lower", "SyncNow toward one black-hole peer ÷ dirty objects"},
		{"transport.view_ns", "ns", "lower", "View per key on an idle store"},
		{"transport.scan_keys_per_s", "1/s", "higher", "Scan of the whole keyspace"},
		{"transport.query_keys_per_s", "1/s", "higher", "Query of every shard"},
		{"transport.snapshot_ms", "ms", "lower", "SnapshotNow of the replay store (preload + replayed ops)"},
		{"transport.restore_ms", "ms", "lower", "Open over that snapshot directory"},
	}
	var out []metric
	for _, d := range defs {
		d := d
		out = append(out, metric{name: d.name, unit: d.unit, better: d.better, doc: d.doc,
			value: func(r *result) float64 { return r.replay[d.name] }})
	}
	return out
}
