package exp

import (
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"crdtsync/internal/metrics"
	"crdtsync/internal/topology"
)

// cell parses a float cell, failing on render errors.
func cell(t *testing.T, tab *Table, row int, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(tab.Rows[row][col], "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("table %s row %d col %d: %q is not numeric: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

// rowIdx locates the row whose first cell equals name.
func rowIdx(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, r := range tab.Rows {
		if r[0] == name {
			return i
		}
	}
	t.Fatalf("table %s: no row %q", tab.ID, name)
	return -1
}

func TestFig1Shape(t *testing.T) {
	tab := Fig1(TestConfig())
	// TOTAL row: classic/state cumulative ratio should be near 1
	// (classic delta is no better than state-based on a mesh).
	total := rowIdx(t, tab, "TOTAL")
	r := cell(t, tab, total, 3)
	if r < 0.5 || r > 1.6 {
		t.Errorf("fig1: classic/state transmission ratio = %.2f, want near 1", r)
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig7 sweep is slow")
	}
	tab := Fig7(TestConfig())
	gsetTree, gsetMesh := 1, 2 // columns
	gcMesh := 4

	state := rowIdx(t, tab, "state-based")
	classic := rowIdx(t, tab, "delta-classic")
	bp := rowIdx(t, tab, "delta-bp")
	sb := rowIdx(t, tab, "scuttlebutt")

	// Mesh, GSet: classic should be within 40% of state-based and both
	// well above BP+RR (= 1.0).
	if c, s := cell(t, tab, classic, gsetMesh), cell(t, tab, state, gsetMesh); c < 0.6*s {
		t.Errorf("fig7 mesh/gset: classic (%.2f) should be comparable to state (%.2f)", c, s)
	}
	if c := cell(t, tab, classic, gsetMesh); c < 2 {
		t.Errorf("fig7 mesh/gset: classic ratio %.2f, want well above 1", c)
	}
	// Tree, GSet: BP alone attains the best result.
	if b := cell(t, tab, bp, gsetTree); b > 1.15 {
		t.Errorf("fig7 tree/gset: BP alone ratio %.2f, want ≈1", b)
	}
	// Mesh, GCounter: Scuttlebutt behaves worse than state-based
	// (it cannot compress increments under the join).
	if sbr, st := cell(t, tab, sb, gcMesh), cell(t, tab, state, gcMesh); sbr <= st {
		t.Errorf("fig7 mesh/gcounter: scuttlebutt (%.2f) should exceed state-based (%.2f)", sbr, st)
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 sweep is slow")
	}
	tab := Fig8(TestConfig())
	classic := rowIdx(t, tab, "delta-classic")
	bp := rowIdx(t, tab, "delta-bp")
	// Columns alternate tree/mesh for K = 10, 30, 60, 100.
	// Tree columns are odd-indexed starting at 1.
	for _, col := range []int{1, 3, 5, 7} {
		if b := cell(t, tab, bp, col); b > 1.2 {
			t.Errorf("fig8 col %d (tree): BP alone ratio %.2f, want ≈1", col, b)
		}
	}
	// Mesh, sparse GMap (10%): classic far above BP+RR.
	if c := cell(t, tab, classic, 2); c < 2 {
		t.Errorf("fig8 gmap10/mesh: classic ratio %.2f, want well above 1", c)
	}
}

func TestFig9Shape(t *testing.T) {
	cfg := TestConfig()
	tab := Fig9(cfg)
	// Collect metadata-percent per protocol at the largest N.
	last := func(proto string) float64 {
		for i := len(tab.Rows) - 1; i >= 0; i-- {
			if tab.Rows[i][0] == proto {
				return cell(t, tab, i, 3)
			}
		}
		t.Fatalf("fig9: protocol %s not found", proto)
		return 0
	}
	deltaPct := last("delta-bp+rr")
	sbPct := last("scuttlebutt")
	gcPct := last("scuttlebutt-gc")
	opPct := last("op-based")
	if deltaPct > 25 {
		t.Errorf("fig9: delta metadata share %.1f%%, want small", deltaPct)
	}
	for name, pct := range map[string]float64{"scuttlebutt": sbPct, "scuttlebutt-gc": gcPct, "op-based": opPct} {
		if pct < 50 {
			t.Errorf("fig9: %s metadata share %.1f%%, want dominant (>50%%)", name, pct)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 sweep is slow")
	}
	tab := Fig10(TestConfig())
	state := rowIdx(t, tab, "state-based")
	classic := rowIdx(t, tab, "delta-classic")
	sb := rowIdx(t, tab, "scuttlebutt")
	gsetCol := 2
	// State-based needs no sync metadata: at or below BP+RR.
	if s := cell(t, tab, state, gsetCol); s > 1.05 {
		t.Errorf("fig10 gset: state-based memory ratio %.2f, want ≤ 1", s)
	}
	// Classic delta stores larger δ-groups: above BP+RR.
	if c := cell(t, tab, classic, gsetCol); c < 1.0 {
		t.Errorf("fig10 gset: classic memory ratio %.2f, want ≥ 1", c)
	}
	// Plain Scuttlebutt never prunes: clearly above BP+RR.
	if s := cell(t, tab, sb, gsetCol); s < 1.0 {
		t.Errorf("fig10 gset: scuttlebutt memory ratio %.2f, want > 1", s)
	}
}

func TestRetwisSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("retwis sweep is slow")
	}
	cfg := TestConfig()
	points := RetwisSweep(cfg)
	byKey := make(map[string]RetwisPoint)
	for _, p := range points {
		byKey[p.Protocol+"/"+strconvF(p.Zipf)] = p
		if !p.Converged {
			t.Errorf("retwis %s zipf=%.2f did not converge", p.Protocol, p.Zipf)
		}
	}
	// High contention: classic transmits much more than BP+RR in the
	// second half.
	hiClassic := byKey["delta-classic/1.50"]
	hiBPRR := byKey["delta-bp+rr/1.50"]
	if hiClassic.BytesPerNodeSecond < 1.5*hiBPRR.BytesPerNodeSecond {
		t.Errorf("retwis zipf=1.5: classic tx/node %.0f vs bp+rr %.0f, want classic ≫",
			hiClassic.BytesPerNodeSecond, hiBPRR.BytesPerNodeSecond)
	}
	// Low contention: classic is close to BP+RR (within 2×).
	loClassic := byKey["delta-classic/0.50"]
	loBPRR := byKey["delta-bp+rr/0.50"]
	if loBPRR.BytesPerNodeSecond > 0 && loClassic.BytesPerNodeSecond > 2.5*loBPRR.BytesPerNodeSecond {
		t.Errorf("retwis zipf=0.5: classic tx/node %.0f vs bp+rr %.0f, want near-equal",
			loClassic.BytesPerNodeSecond, loBPRR.BytesPerNodeSecond)
	}
	// Render both figures without error.
	Fig11From(points)
	Fig12From(points)
}

func strconvF(f float64) string { return strconv.FormatFloat(f, 'f', 2, 64) }

func TestTableII(t *testing.T) {
	cfg := TestConfig()
	cfg.RetwisRounds = 40
	tab := TableII(cfg)
	follow := cell(t, tab, 0, 2)
	post := cell(t, tab, 1, 2)
	timeline := cell(t, tab, 2, 2)
	if follow < 10 || follow > 20 {
		t.Errorf("tab2: follow share %.0f%%, want ≈15%%", follow)
	}
	if post < 30 || post > 40 {
		t.Errorf("tab2: post share %.0f%%, want ≈35%%", post)
	}
	if timeline < 45 || timeline > 55 {
		t.Errorf("tab2: timeline share %.0f%%, want ≈50%%", timeline)
	}
	// Follow performs exactly 1 update.
	if u := cell(t, tab, 0, 1); u != 1 {
		t.Errorf("tab2: follow updates %.2f, want 1", u)
	}
	// Post performs at least 1 update (1 + #followers).
	if u := cell(t, tab, 1, 1); u < 1 {
		t.Errorf("tab2: post updates %.2f, want ≥ 1", u)
	}
}

// TestRunStorePaperMeshGolden pins what the store sends on the paper's
// 15-node partial mesh, as crdtsim -store -topology mesh -nodes 15 -keys
// 2000 runs it (32 shards, 50 ms ticks, digests every 4 ticks, seed 42),
// under both engines: the frames, the bytes on the wire, the elements
// shipped and the rest of Stats().Sent — the messages, payload and
// metadata bytes the packer sums — to the unit, and the digest every
// replica settles on. A change that moves a byte on the wire or the
// accounting moves these, and states the new figures and why.
func TestRunStorePaperMeshGolden(t *testing.T) {
	for _, want := range []struct {
		engine                  string
		frames, bytes, elements int
		sent                    metrics.Transmission
	}{
		{"acked", 17663, 1216805, 61476, metrics.Transmission{Messages: 17663, Elements: 61476, PayloadBytes: 676236, MetadataBytes: 1354906}},
		{"delta", 15795, 1080242, 67491, metrics.Transmission{Messages: 15795, Elements: 67491, PayloadBytes: 742401, MetadataBytes: 1040168}},
	} {
		tab, st, err := runStore(StoreRun{Graph: topology.PartialMesh(15, 4, 42), Engine: want.engine, Shards: 32,
			SyncEvery: 50 * time.Millisecond, DigestEvery: 4, Keys: 2000, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		// The accounting is the packer's own sum, not the wire's: pinned
		// apart from the bytes.
		if st.Sent != want.sent {
			t.Errorf("%s engine: Stats().Sent %+v, want %+v", want.engine, st.Sent, want.sent)
		}
		got := []int{int(cell(t, tab, rowIdx(t, tab, "frames"), 1)), int(cell(t, tab, rowIdx(t, tab, "wire bytes"), 1)),
			int(cell(t, tab, rowIdx(t, tab, "elements"), 1))}
		if !slices.Equal(got, []int{want.frames, want.bytes, want.elements}) {
			t.Errorf("%s engine: %d frames, %d wire bytes, %d elements; want %d, %d and %d",
				want.engine, got[0], got[1], got[2], want.frames, want.bytes, want.elements)
		}
		if d := tab.Rows[rowIdx(t, tab, "digest")][1]; d != "84d6b7aaeb896f19" {
			t.Errorf("%s engine settled on digest %s, want 84d6b7aaeb896f19", want.engine, d)
		}
	}
}

// TestRunStoreMallocsGolden pins the heap allocations per update of the
// runs TestRunStorePaperMeshGolden and TestRunStoreFullMesh pin the bytes
// of: the paper's 15-node partial mesh and three fully meshed replicas,
// under both engines. The whole run is counted — replicas, scheduler and
// oracle — to within 0.1 %, which covers what the runtime allocates on
// the side; a change that moves what a write, a pass or a delivery
// allocates moves these, and states the new figures and why. -race
// allocates on paths of its own, so the pin is skipped under it.
func TestRunStoreMallocsGolden(t *testing.T) {
	if raceDetector {
		t.Skip("-race allocates on paths of its own")
	}
	mesh := StoreRun{Graph: topology.PartialMesh(15, 4, 42), Shards: 32, SyncEvery: 50 * time.Millisecond, DigestEvery: 4, Keys: 2000, Seed: 42}
	full := StoreRun{Graph: topology.Full(3), Shards: 8, SyncEvery: 50 * time.Millisecond, Keys: 300, Seed: 1}
	for _, want := range []struct {
		run    StoreRun
		engine string
		per    float64 // mallocs per update, over the whole run
	}{
		// 479.848, 437.080, 41.455 and 48.487 while a pass wrapped each
		// δ-group in a message and a per-shard batch before the packer;
		// 372.870, 328.169, 33.723 and 38.820 while the receiver wrapped
		// each keyed item in a DeltaMsg and each acknowledged key in an
		// AckMsg before its engine.
		{mesh, "acked", 341.875},
		{mesh, "delta", 294.188},
		{full, "acked", 31.633},
		{full, "delta", 35.745},
	} {
		r := want.run
		r.Engine = want.engine
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunStore(r); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / float64(r.Keys)
		t.Logf("%d replicas, %s engine: %.3f mallocs per update", r.Graph.NumNodes(), r.Engine, got)
		if math.Abs(got-want.per) > want.per/1000 {
			t.Errorf("%d replicas, %s engine: %.3f mallocs per update, want %.3f within 0.1 %%",
				r.Graph.NumNodes(), r.Engine, got, want.per)
		}
	}
}

// TestRunStoreFullMesh: on three fully meshed replicas with digests off,
// the acked engine ships each update to the writer's two neighbors and no
// further, since each has heard that the other reaches the writer: 2.00
// elements per update. The plain delta engine forwards it once more from
// each receiver, except where the other receiver's forward arrived first:
// a store sends no neighbor back what that neighbor sent it, and the
// receiver ordering second holds its forward until its second tick for the
// other's to arrive, so the run reads 3.00 — one forward per pair (3.34
// while both forwarded at once, 3.02 while the hold lasted one pass),
// where Algorithm 1's 4.00 would forward from both. A run replays from its
// seed.
func TestRunStoreFullMesh(t *testing.T) {
	for engine, want := range map[string]float64{"acked": 2, "delta": 3} {
		r := StoreRun{Graph: topology.Full(3), Engine: engine, Shards: 8, SyncEvery: 50 * time.Millisecond, Keys: 300, Seed: 1}
		a, err := RunStore(r)
		if err != nil {
			t.Fatal(err)
		}
		got := cell(t, a, rowIdx(t, a, "elements per update"), 1)
		if got != want {
			t.Errorf("%s engine shipped %.2f elements per update, want %.2f", engine, got, want)
		}
		if got >= 4 {
			t.Errorf("%s engine shipped %.2f elements per update: a receiver forwarded what its neighbor had sent it", engine, got)
		}
		if b, err := RunStore(r); err != nil || b.String() != a.String() {
			t.Errorf("%s engine ran twice:\n%s\nthen (%v):\n%s", engine, a, err, b)
		}
	}
	for _, engine := range []string{"x", "scuttlebutt"} {
		if _, err := RunStore(StoreRun{Graph: topology.Full(3), Engine: engine}); err == nil {
			t.Errorf("the unknown engine %q ran", engine)
		}
	}
}
