package transport

import (
	"fmt"
	"runtime"
	"testing"

	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// repairMeasurement is one measured repair of a single diverged key in
// an n-key shard: the total wire bytes both stores put on the network
// from the healing heartbeat to digest-checked convergence.
type repairMeasurement struct {
	Keys       int
	WireBytes  int
	TreeRounds int
	// RepairPayloadBytes is the key+state payload the two stores shipped
	// in the drill's closes (RepairBytes, both halves).
	RepairPayloadBytes int
}

// measureRepair stages, on the scheduler, two replicas that hold the same
// keys set objects in their one shard, and one more key on s-00 alone, its
// δ-groups lost to a black hole; then it measures the wire cost of
// repairing that key, up to the oracle's convergence — by the drill s-00's
// advertisement starts or (flat) by the same exchange closed at the root
// with nothing sent along: s-01 asks for s-00's whole shard, which is what
// repair costs without the tree.
func measureRepair(t *testing.T, keys int, flat bool) repairMeasurement {
	t.Helper()
	s := drillMesh(t, 1, 2, keys, func(s *sim) { s.Update(0, workload.Add("s/k-diverged", "v")) })
	s0, s1 := s.nodes[0], s.nodes[1]
	if got := s1.st.NumKeys(); got != keys {
		s.fatalf("black hole leaked: s-01 holds %d keys, want %d", got, keys)
	}
	base := s.total()
	if flat {
		b := newOutBatch(len(s1.neighbors))
		now := s.now + s1.off
		s1.shipRange(s0.cfg.ID, 0, 0, rootNode, nil, nil, b, now)
		s1.flush(b, nil, now)
	} else {
		s.advertise(0)
	}
	s.converge(simSettlePeriods)
	st := s.total()
	return repairMeasurement{
		Keys:               keys,
		WireBytes:          st.WireBytes - base.WireBytes,
		TreeRounds:         st.TreeRounds - base.TreeRounds,
		RepairPayloadBytes: st.RepairBytes - base.RepairBytes,
	}
}

// TestRepairBytesProportionalToDivergence is the pinned guarantee of
// the Merkle drill-down: repairing one diverged key in a large shard
// costs O(log n) hash exchange plus one key's payload, at least 100x
// below the flat anti-entropy's full-shard ship. On the scheduler the
// 40 000-key shard costs well under a second, so the pin runs under -short
// too.
func TestRepairBytesProportionalToDivergence(t *testing.T) {
	const keys = 40000
	tree := measureRepair(t, keys, false)
	flat := measureRepair(t, keys, true)
	ratio := float64(flat.WireBytes) / float64(tree.WireBytes)
	t.Logf("1 diverged key in %d: drill-down = %d B (%d rounds, %d payload), full ship = %d B (%.0fx)",
		keys, tree.WireBytes, tree.TreeRounds, tree.RepairPayloadBytes, flat.WireBytes, ratio)
	if ratio < 100 {
		t.Errorf("drill-down repair = %d B is not 100x below full ship = %d B (%.1fx)",
			tree.WireBytes, flat.WireBytes, ratio)
	}
	// One frame per level the drill descends, and the close.
	if tree.TreeRounds < 2 || tree.TreeRounds > protocol.TreeDepth+1 {
		t.Errorf("TreeRounds = %d, want at most one per level and the close", tree.TreeRounds)
	}
}

// drillPushKeys is about what one shard of bench's repair workload
// holds: 21 000 keys over 64 shards.
const drillPushKeys = 330

// BenchmarkDrillPush times the hashes of a level-0 push — the shard's 16
// children, from one pass over the hashes its engine keeps — on a shard of
// drillPushKeys keys, and fails if a push allocates more than 4 KB: it
// allocates its 16 hashes and a few words of bookkeeping, where a 32 KB
// leaf vector folded per drill would show at once.
func BenchmarkDrillPush(b *testing.B) {
	c, err := newCore(StoreConfig{ID: "n0", Shards: 1, Engine: EngineDelta, ObjType: simObjType}.withDefaults(), 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < drillPushKeys; i++ {
		c.update(workload.Add(fmt.Sprintf("s/k%04d", i), "v"))
	}
	sh := c.shards[0]
	sh.rehash()
	b.ReportAllocs()
	b.ResetTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		drillPushSink = sh.childHashes(0, rootNode)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N); per > 4<<10 {
		b.Fatalf("a level-0 push allocates %d B, want at most 4 KB", per)
	}
}

var drillPushSink []uint64
