package netsim

import (
	"fmt"
	"testing"

	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
	"crdtsync/internal/topology"
	"crdtsync/internal/workload"
)

// The acked engine with every neighbor's announcement filled in from the
// topology graph (protocol.Reach), under the simulator: seeded, no clock.

// reachEngine is one node's acked engine of a GSet with its Reach, watched:
// it remembers which neighbor each element first came from — the origin
// the engine files it under — and checks every δ-group the engine sends.
type reachEngine struct {
	protocol.Engine
	t      *testing.T
	reach  *protocol.Reach
	source map[string]string
}

// withReach builds acked BP+RR engines that have heard every neighbor
// announce its own neighbors.
func withReach(t *testing.T, topo *topology.Graph) protocol.Factory {
	inner := protocol.NewDeltaAcked(true, true)
	return func(cfg protocol.Config) protocol.Engine {
		cfg.Reach = protocol.NewReach(cfg.Neighbors)
		for _, o := range cfg.Neighbors {
			cfg.Reach.Set(o, topo.Neighbors(o))
		}
		return &reachEngine{Engine: inner(cfg), t: t, reach: cfg.Reach, source: make(map[string]string)}
	}
}

func (e *reachEngine) Sync(send protocol.Sender) { e.Engine.Sync(e.checked(send)) }

func (e *reachEngine) Deliver(from string, m protocol.Msg, send protocol.Sender) {
	if d, ok := m.(*protocol.AckedDeltaMsg); ok {
		have := e.State().(*crdt.GSet)
		for _, x := range d.Delta.(*crdt.GSet).Values() {
			if !have.Contains(x) {
				e.source[x] = from
			}
		}
	}
	e.Engine.Deliver(from, m, e.checked(send))
}

// checked is send with the property asserted: a δ-group to j carries
// nothing that came from j, and nothing whose source had announced j —
// withheld only if announced, and always if announced.
func (e *reachEngine) checked(send protocol.Sender) protocol.Sender {
	return func(to string, m protocol.Msg) {
		if d, ok := m.(*protocol.AckedDeltaMsg); ok {
			for _, x := range d.Delta.(*crdt.GSet).Values() {
				src, remote := e.source[x]
				if !remote {
					continue // written here: owed to everybody
				}
				if src == to {
					e.t.Errorf("%s sent %s back to %s, where it came from", e.ID(), x, to)
				}
				for _, reached := range e.reach.Of(src) {
					if reached == to {
						e.t.Errorf("%s forwarded %s to %s, which its source %s had announced it reaches", e.ID(), x, to, src)
					}
				}
			}
		}
		send(to, m)
	}
}

// sequentialJoin is what every replica must hold after rounds of GSetGen.
func sequentialJoin(topo *topology.Graph, rounds int) *crdt.GSet {
	want := crdt.NewGSet()
	nodes := topo.Nodes()
	for r := 0; r < rounds; r++ {
		for i, id := range nodes {
			for _, op := range (workload.GSetGen{}).Ops(r, id, i, len(nodes)) {
				want.Add(op.Elem)
			}
		}
	}
	return want
}

// TestReachConvergesOnEveryTopology: withholding on the neighbors' word
// still gets every update everywhere — on a line and a tree, where nobody
// reaches anybody else's neighbor and nothing changes; on a ring, a full
// mesh and the paper's partial mesh, where some or all forwards go — with
// and without message loss.
func TestReachConvergesOnEveryTopology(t *testing.T) {
	const rounds = 10
	for name, topo := range map[string]*topology.Graph{
		"line":    topology.Line(5),
		"ring":    topology.Ring(7),
		"tree":    topology.Tree(15, 2),
		"full":    topology.Full(5),
		"partial": topology.PartialMesh(15, 4, 1),
	} {
		for _, loss := range []float64{0, 0.3} {
			t.Run(fmt.Sprintf("%s/loss=%.1f", name, loss), func(t *testing.T) {
				sim := New(topo, withReach(t, topo), workload.GSetType{}, Options{Seed: 7, DropProb: loss})
				sim.Run(rounds, workload.GSetGen{})
				if used, ok := sim.RunQuiet(400); !ok {
					t.Fatalf("no convergence after %d quiet rounds", used)
				}
				want := sequentialJoin(topo, rounds)
				for _, id := range sim.Nodes() {
					if got := sim.Engine(id).State(); !got.Equal(want) {
						t.Errorf("%s holds %d elements, want the sequential join's %d", id, got.Elements(), want.Elements())
					}
				}
			})
		}
	}
}

// TestReachFullMeshShipsEachUpdateOncePerReplica: on a lossless full mesh
// an update's element crosses exactly N−1 links, the origin's own; under
// BP alone every receiver forwards it to everybody but the sender, where
// RR drops it. On the partial mesh what is saved depends on how many of a
// node's neighbors are neighbors of each other: logged, not pinned.
func TestReachFullMeshShipsEachUpdateOncePerReplica(t *testing.T) {
	const rounds = 10
	elements := func(topo *topology.Graph, factory protocol.Factory) int {
		sim := New(topo, factory, workload.GSetType{}, Options{Seed: 3})
		sim.Run(rounds, workload.GSetGen{})
		if _, ok := sim.RunQuiet(50); !ok {
			t.Fatal("no convergence")
		}
		return sim.Collector().TotalSent().Elements
	}
	for _, n := range []int{3, 5} {
		topo := topology.Full(n)
		updates := n * rounds
		if got := elements(topo, withReach(t, topo)); got != (n-1)*updates {
			t.Errorf("full mesh of %d: %d elements for %d updates, want exactly %d each", n, got, updates, n-1)
		}
		if got := elements(topo, protocol.NewDeltaAcked(true, true)); got <= (n-1)*updates {
			t.Errorf("full mesh of %d without announcements: %d elements for %d updates, want the forwards on top of %d each", n, got, updates, n-1)
		}
	}
	topo := topology.PartialMesh(15, 4, 1)
	with, without := elements(topo, withReach(t, topo)), elements(topo, protocol.NewDeltaAcked(true, true))
	t.Logf("15-node degree-4 partial mesh: %d elements with announcements, %d without (%.2f×)", with, without, float64(without)/float64(with))
	if with > without {
		t.Errorf("announcements cost elements: %d with, %d without", with, without)
	}
}
