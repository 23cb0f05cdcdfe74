package netsim

import (
	"crdtsync/internal/lattice"
	"crdtsync/internal/metrics"
	"testing"

	"crdtsync/internal/protocol"
	"crdtsync/internal/topology"
	"crdtsync/internal/workload"
)

// TestDeterministicMetrics checks that two runs with the same seed produce
// identical transmission accounting.
func TestDeterministicMetrics(t *testing.T) {
	runOnce := func() (int, int, int) {
		topo := topology.PartialMesh(15, 4, 2)
		sim := New(topo, protocol.NewDeltaBPRR(), workload.GSetType{}, Options{Seed: 9})
		sim.Run(15, workload.GSetGen{})
		sim.RunQuiet(50)
		sent := sim.Collector().TotalSent()
		return sent.Messages, sent.Elements, sent.TotalBytes()
	}
	m1, e1, b1 := runOnce()
	m2, e2, b2 := runOnce()
	if m1 != m2 || e1 != e2 || b1 != b2 {
		t.Errorf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", m1, e1, b1, m2, e2, b2)
	}
}

// TestCPUMeasurement checks that MeasureCPU populates per-node CPU time.
func TestCPUMeasurement(t *testing.T) {
	topo := topology.Line(3)
	sim := New(topo, protocol.NewStateBased(), workload.GSetType{}, Options{Seed: 1, MeasureCPU: true})
	sim.Run(5, workload.GSetGen{})
	if sim.Collector().TotalCPU() <= 0 {
		t.Error("MeasureCPU did not accumulate time")
	}
	off := New(topo, protocol.NewStateBased(), workload.GSetType{}, Options{Seed: 1})
	off.Run(5, workload.GSetGen{})
	if off.Collector().TotalCPU() != 0 {
		t.Error("CPU measured despite MeasureCPU=false")
	}
}

// TestNonNeighborSendPanics checks the simulator's topology enforcement.
func TestNonNeighborSendPanics(t *testing.T) {
	topo := topology.Line(3) // n00 — n01 — n02
	var rogue protocol.Factory = func(cfg protocol.Config) protocol.Engine {
		return &rogueEngine{cfg: cfg}
	}
	sim := New(topo, rogue, workload.GSetType{}, Options{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("sending to a non-neighbor should panic")
		}
	}()
	sim.Step(nil)
}

// rogueEngine sends to a node it is not connected to.
type rogueEngine struct {
	cfg protocol.Config
}

func (r *rogueEngine) ID() string             { return r.cfg.ID }
func (r *rogueEngine) State() lattice.State   { return r.cfg.Datatype.New() }
func (r *rogueEngine) LocalOp(workload.Op)    {}
func (r *rogueEngine) Memory() metrics.Memory { return metrics.Memory{} }
func (r *rogueEngine) Sync(send protocol.Sender) {
	if r.cfg.ID == "n00" {
		send("n02", &protocol.DeltaMsg{})
	}
}
func (r *rogueEngine) Deliver(string, protocol.Msg, protocol.Sender) {}

// TestRoundCounting checks Round() and the per-round series lengths.
func TestRoundCounting(t *testing.T) {
	topo := topology.Line(2)
	sim := New(topo, protocol.NewDeltaBPRR(), workload.GSetType{}, Options{Seed: 1})
	sim.Run(7, workload.GSetGen{})
	if sim.Round() != 7 {
		t.Errorf("Round = %d, want 7", sim.Round())
	}
	if got := len(sim.Collector().RoundElements()); got > 7 {
		t.Errorf("round series has %d entries for 7 rounds", got)
	}
}

// TestRunQuietStopsEarly checks that convergence is detected promptly on a
// trivial topology.
func TestRunQuietStopsEarly(t *testing.T) {
	topo := topology.Line(2)
	sim := New(topo, protocol.NewStateBased(), workload.GSetType{}, Options{Seed: 1})
	sim.Run(3, workload.GSetGen{})
	rounds, ok := sim.RunQuiet(50)
	if !ok {
		t.Fatal("no convergence")
	}
	if rounds > 3 {
		t.Errorf("took %d quiet rounds on a 2-node line, want ≤ 3", rounds)
	}
}

// TestSingleNode checks the degenerate cluster.
func TestSingleNode(t *testing.T) {
	topo := topology.NewGraph()
	topo.AddNode("n00")
	sim := New(topo, protocol.NewDeltaBPRR(), workload.GSetType{}, Options{Seed: 1})
	sim.Run(5, workload.GSetGen{})
	if !sim.Converged() {
		t.Error("single node should always be converged")
	}
	if got := sim.Engine("n00").State().Elements(); got != 5 {
		t.Errorf("local ops lost: %d elements, want 5", got)
	}
}

// TestClassicOverBPRRElements pins the paper-fidelity count the benchmark
// reports as protocol.sim_classic_over_bprr_elements (Fig. 7, GSet on the
// partial mesh): the elements classic delta-based synchronization ships
// over those BP+RR ships. The simulator is deterministic, so the counts
// repeat exactly; they move only if Δ stops being minimal or an engine
// ships something else than before.
func TestClassicOverBPRRElements(t *testing.T) {
	elements := func(f protocol.Factory) int {
		sim := New(topology.PartialMesh(15, 4, 42), f, workload.GSetType{}, Options{Seed: 42})
		sim.Run(100, workload.GSetGen{})
		sim.RunQuiet(60)
		return sim.Collector().TotalSent().Elements
	}
	classic, bprr := elements(protocol.NewDeltaClassic()), elements(protocol.NewDeltaBPRR())
	const wantClassic, wantBPRR = 4543368, 68850
	if classic != wantClassic || bprr != wantBPRR {
		t.Errorf("classic ships %d elements, BP+RR %d (ratio %.4f), want %d and %d (65.9894)",
			classic, bprr, float64(classic)/float64(bprr), wantClassic, wantBPRR)
	}
}
