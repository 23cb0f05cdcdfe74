package transport

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"crdtsync/internal/codec"
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// benchRecvFrame builds one encoded inbound frame shaped like a sender's
// sync tick: objectsPerShard small GSet deltas batched per shard, for
// every shard in [0, shards), keys hash-routed so the frame is exactly
// what a real peer of a shards-wide store would emit.
func benchRecvFrame(tb testing.TB, shards, objectsPerShard int) []byte {
	tb.Helper()
	mask := uint32(shards - 1)
	items := make([]protocol.ShardItem, 0, shards)
	for sh := 0; sh < shards; sh++ {
		keys := keysOnShard(mask, uint32(sh), objectsPerShard)
		oms := make([]protocol.ObjectMsg, 0, len(keys))
		for i, k := range keys {
			// One element per δ-group: the steady-state tick ships what
			// changed since the last one, typically a single op per key.
			oms = append(oms, protocol.ObjectMsg{Key: k, Inner: gsetDelta(sh*100+i, 1)})
		}
		items = append(items, protocol.ShardItem{Shard: uint32(sh), Msg: protocol.BatchOf(oms)})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Shard < items[j].Shard })
	return encodeFrame(tb, protocol.NewShardedMsg(items))
}

// deliverEager replicates the pre-refactor inbound path for baseline
// comparison: decode the whole frame eagerly (the caller does that part),
// then lock each item's shard separately and deliver through the
// batch-materializing engine entry point, flushing any replies on a fresh
// goroutine. Kept test-local so the production path cannot regress into
// it silently — BenchmarkDeliver measures both.
func deliverEager(s *Store, from string, msg protocol.Msg) {
	b := newOutBatch()
	m, ok := msg.(*protocol.ShardedMsg)
	if !ok {
		return
	}
	for _, it := range m.Items {
		idx := int(it.Shard)
		if idx >= len(s.shards) {
			continue
		}
		sh := s.shards[idx]
		sh.mu.Lock()
		sh.engine.Deliver(from, it.Msg, b.sender(it.Shard))
		sh.touched()
		sh.mu.Unlock()
	}
	if s.hasWatchers() {
		for _, it := range m.Items {
			bm, ok := it.Msg.(*protocol.BatchMsg)
			if !ok {
				continue
			}
			for _, om := range bm.Items {
				switch om.Inner.Kind() {
				case "ack", "sb-digest":
					continue
				}
				s.notifyWatchers(om.Key)
			}
		}
	}
	if len(b.order) == 0 {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.flush(b, nil)
	}()
}

// preRefactorRR replicates the pre-refactor BP+RR engine's Deliver for
// the baseline: Δ(d, x) was computed unconditionally, so every redundant
// re-delivery — the steady state this benchmark measures — paid a fresh
// bottom plus one materialized singleton per irreducible before
// discovering there was nothing to keep. The production engine now
// short-circuits on d ⊑ x; the baseline store must not inherit that, or
// the comparison stops being against the pre-refactor path.
type preRefactorRR struct {
	cfg protocol.Config
	x   lattice.State
}

func newPreRefactorRR(cfg protocol.Config) protocol.Engine {
	return &preRefactorRR{cfg: cfg, x: cfg.Datatype.New()}
}

func (e *preRefactorRR) ID() string             { return e.cfg.ID }
func (e *preRefactorRR) State() lattice.State   { return e.x }
func (e *preRefactorRR) LocalOp(op workload.Op) {}
func (e *preRefactorRR) Sync(protocol.Sender)   {}

func (e *preRefactorRR) Deliver(from string, m protocol.Msg, _ protocol.Sender) {
	dm, ok := m.(*protocol.DeltaMsg)
	if !ok {
		return
	}
	d := dm.Delta.Bottom()
	dm.Delta.Irreducibles(func(y lattice.State) bool {
		if !y.Leq(e.x) {
			d.Merge(y)
		}
		return true
	})
	if d.IsBottom() {
		return
	}
	e.x.Merge(d)
}

func (e *preRefactorRR) Memory() metrics.Memory { return metrics.Memory{} }

// recvShape is one benchmarked frame shape.
type recvShape struct {
	name            string
	shards          int // store and frame width
	objectsPerShard int
}

// recvShapes are the two inbound shapes the README quotes: "hot" is the
// steady-state sync tick (a few objects across a few shards — the shape a
// replica receives every interval), "bulk" a backlog-sized frame (64
// shards × 32 objects, the packer benchmark's shape).
var recvShapes = []recvShape{
	{name: "hot", shards: 4, objectsPerShard: 1},
	{name: "bulk", shards: 64, objectsPerShard: 32},
}

// BenchmarkDeliver measures the inbound frame path end to end — frame
// bytes to applied shard engines — for the single-pass view path against
// the eager decode-then-lock-per-item baseline it replaced. Deliveries
// are steady-state: the frame's deltas are already applied, so the inner
// engines drop them as redundant and the measurement isolates the wire
// path (unpack, locking, routing) rather than first-contact state growth.
func BenchmarkDeliver(b *testing.B) {
	for _, shape := range recvShapes {
		frame := benchRecvFrame(b, shape.shards, shape.objectsPerShard)
		items := shape.shards * shape.objectsPerShard
		b.Run(shape.name+"/view", func(b *testing.B) {
			s := startSoloStore(b, shape.shards)
			if err := s.deliver("peer", frame); err != nil { // warmup: create the objects
				b.Fatalf("deliver: %v", err)
			}
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.deliver("peer", frame); err != nil {
					b.Fatalf("deliver: %v", err)
				}
			}
			b.ReportMetric(float64(items), "items/op")
		})
		b.Run(shape.name+"/eager-baseline", func(b *testing.B) {
			s := startSoloStoreWith(b, shape.shards, newPreRefactorRR)
			if err := s.deliver("peer", frame); err != nil {
				b.Fatalf("deliver: %v", err)
			}
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The pre-refactor readFrame allocated a fresh buffer and
				// sender string per frame; charge the baseline for both.
				buf := make([]byte, len(frame))
				copy(buf, frame)
				from := string([]byte("peer"))
				msg, _, err := codec.DecodeMsg(buf)
				if err != nil {
					b.Fatalf("decode: %v", err)
				}
				deliverEager(s, from, msg)
			}
			b.ReportMetric(float64(items), "items/op")
		})
	}
}

// recvBenchEntry is one measured configuration in BENCH_recv.json.
type recvBenchEntry struct {
	Shape         string  `json:"shape"`
	Path          string  `json:"path"`
	ItemsPerFrame int     `json:"items_per_frame"`
	FrameBytes    int     `json:"frame_bytes"`
	NsPerOp       float64 `json:"ns_per_op"`
	MBPerSec      float64 `json:"mb_per_sec"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	AllocsPerItem float64 `json:"allocs_per_item"`
	BytesAllocOp  int64   `json:"bytes_alloc_per_op"`
}

// recvBenchArtifact is the BENCH_recv.json schema: the measured entries
// plus the view-vs-baseline ratios per shape.
type recvBenchArtifact struct {
	Entries []recvBenchEntry   `json:"entries"`
	Ratios  map[string]float64 `json:"ratios"`
}

// TestWriteRecvBenchArtifact emits BENCH_recv.json, the machine-readable
// receive-path numbers (throughput and allocations for both shapes and
// both paths, with speedup ratios). Gated behind BENCH_RECV_OUT so the
// ordinary test run never pays for benchmarking; CI sets it and uploads
// the artifact.
func TestWriteRecvBenchArtifact(t *testing.T) {
	out := os.Getenv("BENCH_RECV_OUT")
	if out == "" {
		t.Skip("set BENCH_RECV_OUT=<path> to write the receive-path benchmark artifact")
	}
	art := recvBenchArtifact{Ratios: make(map[string]float64)}
	for _, shape := range recvShapes {
		frame := benchRecvFrame(t, shape.shards, shape.objectsPerShard)
		items := shape.shards * shape.objectsPerShard
		measure := func(path string, factory protocol.Factory, loop func(s *Store, b *testing.B)) recvBenchEntry {
			var s *Store
			res := testing.Benchmark(func(b *testing.B) {
				if s == nil {
					s = startSoloStoreWith(b, shape.shards, factory)
					if err := s.deliver("peer", frame); err != nil {
						b.Fatalf("warmup: %v", err)
					}
				}
				b.SetBytes(int64(len(frame)))
				b.ReportAllocs()
				b.ResetTimer()
				loop(s, b)
			})
			e := recvBenchEntry{
				Shape:         shape.name,
				Path:          path,
				ItemsPerFrame: items,
				FrameBytes:    len(frame),
				NsPerOp:       float64(res.NsPerOp()),
				MBPerSec:      float64(len(frame)) * 1e3 / float64(res.NsPerOp()),
				AllocsPerOp:   res.AllocsPerOp(),
				AllocsPerItem: float64(res.AllocsPerOp()) / float64(items),
				BytesAllocOp:  res.AllocedBytesPerOp(),
			}
			art.Entries = append(art.Entries, e)
			return e
		}
		view := measure("view", protocol.NewDeltaBPRR(), func(s *Store, b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := s.deliver("peer", frame); err != nil {
					b.Fatalf("deliver: %v", err)
				}
			}
		})
		eager := measure("eager-baseline", newPreRefactorRR, func(s *Store, b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf := make([]byte, len(frame))
				copy(buf, frame)
				from := string([]byte("peer"))
				msg, _, err := codec.DecodeMsg(buf)
				if err != nil {
					b.Fatalf("decode: %v", err)
				}
				deliverEager(s, from, msg)
			}
		})
		art.Ratios[shape.name+"_throughput_x"] = eager.NsPerOp / view.NsPerOp
		art.Ratios[shape.name+"_allocs_per_item_x"] = eager.AllocsPerItem / view.AllocsPerItem

		// The codec layer in isolation: frame bytes to shard-grouped,
		// lock-routable items (BenchmarkUnpack's comparison), without the
		// per-item CRDT decode+join both deliver paths share.
		codecMeasure := func(path string, loop func(b *testing.B)) recvBenchEntry {
			res := testing.Benchmark(func(b *testing.B) {
				b.SetBytes(int64(len(frame)))
				b.ReportAllocs()
				loop(b)
			})
			e := recvBenchEntry{
				Shape:         shape.name,
				Path:          path,
				ItemsPerFrame: items,
				FrameBytes:    len(frame),
				NsPerOp:       float64(res.NsPerOp()),
				MBPerSec:      float64(len(frame)) * 1e3 / float64(res.NsPerOp()),
				AllocsPerOp:   res.AllocsPerOp(),
				AllocsPerItem: float64(res.AllocsPerOp()) / float64(items),
				BytesAllocOp:  res.AllocedBytesPerOp(),
			}
			art.Entries = append(art.Entries, e)
			return e
		}
		uview := codecMeasure("unpack-view", func(b *testing.B) {
			var v codec.FrameView
			for i := 0; i < b.N; i++ {
				if err := codec.UnpackFrame(frame, shape.shards, &v); err != nil {
					b.Fatalf("UnpackFrame: %v", err)
				}
			}
		})
		udec := codecMeasure("unpack-decode-baseline", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := codec.DecodeMsg(frame); err != nil {
					b.Fatalf("DecodeMsg: %v", err)
				}
			}
		})
		art.Ratios[shape.name+"_unpack_throughput_x"] = udec.NsPerOp / uview.NsPerOp
		// The view path's steady state allocates nothing, which would make
		// the literal ratio infinite (and unrepresentable in JSON); floor
		// the denominator at one allocation per op.
		va := uview.AllocsPerOp
		if va < 1 {
			va = 1
		}
		art.Ratios[shape.name+"_unpack_allocs_per_item_x"] = float64(udec.AllocsPerOp) / float64(va)
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", out, err)
	}
	for k, v := range art.Ratios {
		t.Logf("%s = %.2f", k, v)
	}
}
