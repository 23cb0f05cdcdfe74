package transport

import (
	"sort"
	"testing"

	"crdtsync/internal/protocol"
)

// benchRecvFrame builds one encoded inbound frame shaped like a sender's
// sync tick: objectsPerShard small GSet deltas batched per shard, for
// every shard in [0, shards), keys hash-routed so the frame is exactly
// what a real peer of a shards-wide store would emit.
func benchRecvFrame(tb testing.TB, shards, objectsPerShard int) []byte {
	tb.Helper()
	items := make([]protocol.ShardItem, 0, shards)
	for sh := 0; sh < shards; sh++ {
		keys := keysOnShard(shards, uint32(sh), objectsPerShard)
		oms := make([]protocol.ObjectMsg, 0, len(keys))
		for i, k := range keys {
			// One element per δ-group: the steady-state tick ships what
			// changed since the last one, typically a single op per key.
			oms = append(oms, protocol.ObjectMsg{Key: k, Inner: gsetDelta(sh*100+i, 1)})
		}
		items = append(items, protocol.ShardItem{Shard: uint32(sh), Msg: batchOf(oms)})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Shard < items[j].Shard })
	return dataFrame(tb, items...)
}

// recvShape is one benchmarked frame shape.
type recvShape struct {
	name            string
	shards          int // store and frame width
	objectsPerShard int
}

// recvShapes are the two inbound shapes benchmarked: "hot" is the
// steady-state sync tick (a few objects across a few shards — the shape a
// replica receives every interval), "bulk" a backlog-sized frame (64
// shards × 32 objects, the packer benchmark's shape).
var recvShapes = []recvShape{
	{name: "hot", shards: 4, objectsPerShard: 1},
	{name: "bulk", shards: 64, objectsPerShard: 32},
}

// BenchmarkDeliver measures the inbound frame path end to end — frame
// bytes to applied shard engines. Deliveries are steady-state: the
// frame's deltas are already applied, so the inner engines drop them as
// redundant and the measurement isolates the wire path (unpack, locking,
// routing) rather than first-contact state growth.
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
	}
}
