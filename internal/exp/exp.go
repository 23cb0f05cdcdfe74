// Package exp contains one runner per table and figure of the paper's
// evaluation (§V). Each runner executes the corresponding experiment on
// the netsim substrate and returns a Table whose rows mirror what the
// paper plots, so the repository regenerates every figure as text series.
// RunStore runs the store itself, on the transport package's
// deterministic scheduler, over any topology.
//
// Absolute numbers differ from the paper's Emulab cluster (our substrate is
// a simulator), but the shapes — who wins, by what factor, where the
// crossovers fall — are preserved; EXPERIMENTS.md records the comparison.
package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"crdtsync/internal/metrics"
	"crdtsync/internal/netsim"
	"crdtsync/internal/protocol"
	"crdtsync/internal/topology"
	"crdtsync/internal/workload"
)

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintln(w, line(t.Header))
	for _, row := range t.Rows {
		fmt.Fprintln(w, line(row))
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Config scales every experiment. DefaultConfig matches the paper's setup;
// TestConfig shrinks it for fast CI runs.
type Config struct {
	// Nodes is the micro-benchmark cluster size (paper: 15).
	Nodes int
	// MeshDegree is the partial-mesh degree (paper: 4).
	MeshDegree int
	// TreeChildren is the tree fan-out (paper: 2, i.e. ≤3 neighbors).
	TreeChildren int
	// Rounds is the number of update events per replica (paper: 100).
	Rounds int
	// QuietRounds bounds post-workload convergence rounds.
	QuietRounds int
	// GMapKeys is the GMap key-space size (paper: 1000).
	GMapKeys int
	// MetadataNodeCounts is the cluster-size sweep of Figure 9.
	MetadataNodeCounts []int
	// MetadataIDBytes is the node-id accounting size of Figure 9
	// (paper: 20 bytes).
	MetadataIDBytes int
	// RetwisNodes is the macro-benchmark cluster size (paper: 50).
	RetwisNodes int
	// RetwisUsers is the user count (paper: 10 000).
	RetwisUsers int
	// RetwisRounds is the number of synchronization rounds of the macro
	// benchmark.
	RetwisRounds int
	// RetwisOpsPerRound is the number of user actions per node per round.
	RetwisOpsPerRound int
	// ZipfCoeffs is the contention sweep (paper: 0.5–1.5).
	ZipfCoeffs []float64
	// Seed fixes all randomness.
	Seed int64
}

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		Nodes:              15,
		MeshDegree:         4,
		TreeChildren:       2,
		Rounds:             100,
		QuietRounds:        60,
		GMapKeys:           1000,
		MetadataNodeCounts: []int{8, 16, 32, 64},
		MetadataIDBytes:    20,
		// The paper's Retwis runs 50 nodes × 10k users; classic
		// delta-based at Zipf 1.5 then needs tens of GB of δ-buffers
		// (that blow-up is the paper's point). 30 × 5k keeps the sweep
		// within a 16 GB machine while preserving every trend.
		RetwisNodes:       30,
		RetwisUsers:       5000,
		RetwisRounds:      30,
		RetwisOpsPerRound: 8,
		ZipfCoeffs:        []float64{0.5, 0.75, 1.0, 1.25, 1.5},
		Seed:              42,
	}
}

// TestConfig returns a reduced configuration for fast test runs.
func TestConfig() Config {
	return Config{
		Nodes:              15,
		MeshDegree:         4,
		TreeChildren:       2,
		Rounds:             30,
		QuietRounds:        40,
		GMapKeys:           200,
		MetadataNodeCounts: []int{8, 16},
		MetadataIDBytes:    20,
		RetwisNodes:        10,
		RetwisUsers:        300,
		RetwisRounds:       12,
		RetwisOpsPerRound:  5,
		ZipfCoeffs:         []float64{0.5, 1.0, 1.5},
		Seed:               42,
	}
}

// Proto pairs a display name with a protocol factory, fixing the roster
// and ordering used across the figures.
type Proto struct {
	Name    string
	Factory protocol.Factory
}

// Roster returns every synchronization mechanism of the evaluation, in the
// paper's presentation order.
func Roster() []Proto {
	return []Proto{
		{"state-based", protocol.NewStateBased()},
		{"delta-classic", protocol.NewDeltaClassic()},
		{"delta-bp", protocol.NewDeltaBased(true, false)},
		{"delta-rr", protocol.NewDeltaBased(false, true)},
		{"delta-bp+rr", protocol.NewDeltaBPRR()},
		{"scuttlebutt", protocol.NewScuttlebutt()},
		{"scuttlebutt-gc", protocol.NewScuttlebuttGC()},
		{"op-based", protocol.NewOpBased()},
	}
}

// WorkloadByName maps the command-line workload names to a datatype and
// its paper generator: "gset", "gcounter", or "gmapK" for K in
// {10, 30, 60, 100} (keys sizes the gmap key space). Simulation front
// ends (crdtsim, the examples) use it so the workload vocabulary lives
// in one place and they need not touch internal/workload.
func WorkloadByName(name string, keys int) (workload.Datatype, workload.Generator, error) {
	switch name {
	case "gset":
		return workload.GSetType{}, workload.GSetGen{}, nil
	case "gcounter":
		return workload.GCounterType{}, workload.GCounterGen{}, nil
	case "gmap10", "gmap30", "gmap60", "gmap100":
		k := map[string]int{"gmap10": 10, "gmap30": 30, "gmap60": 60, "gmap100": 100}[name]
		return workload.GMapType{}, workload.GMapGen{K: k, TotalKeys: keys}, nil
	default:
		return nil, nil, fmt.Errorf("exp: unknown workload %q (want gset, gcounter, or gmap10/30/60/100)", name)
	}
}

// mesh builds the partial-mesh topology for n nodes.
func (c Config) mesh(n int) *topology.Graph {
	return topology.PartialMesh(n, c.MeshDegree, c.Seed)
}

// tree builds the tree topology for n nodes.
func (c Config) tree(n int) *topology.Graph {
	return topology.Tree(n, c.TreeChildren)
}

// runResult is the outcome of one simulated run.
type runResult struct {
	Sent          metrics.Transmission
	RoundElements []int
	RoundBytes    []int
	AvgMemory     float64
	AvgSyncMemory float64
	CPUPerNode    map[string]time.Duration
	CPUTotal      time.Duration
	Converged     bool
	Nodes         int
	MemSamples    map[string][]metrics.Memory
}

// run executes one micro-benchmark simulation to convergence.
func run(topo *topology.Graph, f protocol.Factory, dt workload.Datatype, gen workload.Generator, rounds, quiet int, opts netsim.Options) runResult {
	sim := netsim.New(topo, f, dt, opts)
	sim.Run(rounds, gen)
	_, converged := sim.RunQuiet(quiet)
	col := sim.Collector()
	res := runResult{
		Sent:          col.TotalSent(),
		RoundElements: append([]int(nil), col.RoundElements()...),
		RoundBytes:    append([]int(nil), col.RoundBytes()...),
		AvgMemory:     col.AvgMemoryPerNode(),
		AvgSyncMemory: col.AvgSyncMemoryPerNode(),
		CPUTotal:      col.TotalCPU(),
		Converged:     converged,
		Nodes:         topo.NumNodes(),
		CPUPerNode:    make(map[string]time.Duration),
		MemSamples:    make(map[string][]metrics.Memory),
	}
	for _, id := range col.NodeIDs() {
		res.CPUPerNode[id] = col.Node(id).CPU
		res.MemSamples[id] = col.Node(id).MemorySamples()
	}
	return res
}

// ratio formats a/b with two decimals, guarding zero denominators.
func ratio(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", a/b)
}

// fmtBytes renders a byte count with a human unit.
func fmtBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}
