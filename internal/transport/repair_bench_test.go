package transport

import (
	"testing"
	"time"

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

// measureRepair stages two stores that agree on keys single-shard
// GSet objects, diverges exactly one key on the first through a black
// hole, heals, and measures the wire cost of repairing it — by the drill
// an advertisement starts or (flat) by the same exchange closed at the
// root with nothing sent along: the second store asks for the first's
// whole shard, which is what repair costs without the tree.
func measureRepair(t *testing.T, keys int, flat bool) repairMeasurement {
	t.Helper()
	f0, f1 := NewFault(11), NewFault(12)
	f0.SetDropRate(1)
	f1.SetDropRate(1)
	stores := startFaultyPair(t, repairPairConfig(), [2]*Fault{f0, f1})
	s0, s1 := stores[0], stores[1]

	loadIdentical(stores, keys)
	drainInto(t, s0)
	drainInto(t, s1)
	s0.Update(workload.Add("k-diverged", "v"))
	drainInto(t, s0)
	if got := s1.NumKeys(); got != keys {
		t.Fatalf("black hole leaked: s1 holds %d keys, want %d", got, keys)
	}

	f0.SetDropRate(0)
	f1.SetDropRate(0)
	base0, base1 := s0.Stats(), s1.Stats()
	if flat {
		b := newOutBatch()
		s1.shipRange(s0.ID(), 0, 0, rootNode, nil, nil, b)
		s1.flush(b, nil)
	} else {
		s0.SyncNow()
	}
	waitPairConverged(t, stores, keys+1, 5*time.Minute)
	st0, st1 := s0.Stats(), s1.Stats()
	return repairMeasurement{
		Keys:               keys,
		WireBytes:          (st0.WireBytes - base0.WireBytes) + (st1.WireBytes - base1.WireBytes),
		TreeRounds:         (st0.TreeRounds - base0.TreeRounds) + (st1.TreeRounds - base1.TreeRounds),
		RepairPayloadBytes: (st0.RepairBytes - base0.RepairBytes) + (st1.RepairBytes - base1.RepairBytes),
	}
}

// TestRepairBytesProportionalToDivergence is the pinned guarantee of
// the Merkle drill-down: repairing one diverged key in a large shard
// costs O(log n) hash exchange plus one key's payload, at least 100x
// below the flat anti-entropy's full-shard ship. The shard here is kept
// to tens of thousands of keys so the pin runs in the ordinary test
// suite.
func TestRepairBytesProportionalToDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("repair ratio pin stages ~50k-key stores; skipped under -short")
	}
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
