// Command crdtsim runs one ad-hoc synchronization simulation and reports
// transmission, memory and convergence statistics. It is the exploratory
// counterpart to syncbench's fixed experiments.
//
// With -store it runs the store that crdtsync.Open runs instead of bare
// engines: one replica per node of -topology, on the deterministic
// scheduler, with simulated links and clocks drawn from -seed. -keys
// counters are written round-robin across the replicas, and the run ends
// when every replica holds the sequential join of the writes. Its figures
// are in simulated time, so two runs with the same flags print the same
// output.
//
// Usage:
//
//	crdtsim -protocol delta-bp+rr -topology mesh -nodes 15 -datatype gset -rounds 100
//	crdtsim -store -topology mesh -nodes 15 -keys 2000 -engine acked
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"crdtsync/internal/exp"
	"crdtsync/internal/netsim"
	"crdtsync/internal/protocol"
	"crdtsync/internal/topology"
)

func main() {
	proto := flag.String("protocol", "delta-bp+rr", "state-based, delta-classic, delta-bp, delta-rr, delta-bp+rr, scuttlebutt, scuttlebutt-gc, op-based")
	topo := flag.String("topology", "mesh", "mesh, tree, ring, line, full, star")
	nodes := flag.Int("nodes", 15, "cluster size")
	degree := flag.Int("degree", 4, "mesh degree / tree children")
	datatype := flag.String("datatype", "gset", "gset, gcounter, gmap10, gmap30, gmap60, gmap100")
	rounds := flag.Int("rounds", 100, "update rounds (events per replica)")
	keys := flag.Int("keys", 1000, "gmap key-space size; -store: counters to load")
	seed := flag.Int64("seed", 42, "random seed")
	dup := flag.Float64("duplicate", 0, "message duplication probability")
	reorder := flag.Bool("reorder", false, "shuffle delivery order")
	store := flag.Bool("store", false, "run the store (what crdtsync.Open runs) on the deterministic scheduler instead of bare engines")
	shards := flag.Int("shards", 32, "-store: shards per replica")
	syncEvery := flag.Duration("sync-every", 50*time.Millisecond, "-store: synchronization period, in simulated time")
	engine := flag.String("engine", "acked", "-store: per-object engine (acked or delta)")
	digestEvery := flag.Int("digest-every", 4, "-store: digest heartbeat period in ticks (0 disables)")
	flag.Parse()

	var g *topology.Graph
	switch *topo {
	case "mesh":
		g = topology.PartialMesh(*nodes, *degree, *seed)
	case "tree":
		g = topology.Tree(*nodes, *degree/2)
	case "ring":
		g = topology.Ring(*nodes)
	case "line":
		g = topology.Line(*nodes)
	case "full":
		g = topology.Full(*nodes)
	case "star":
		g = topology.Star(*nodes)
	default:
		fmt.Fprintf(os.Stderr, "unknown topology %q\n", *topo)
		os.Exit(2)
	}

	if *store {
		tab, err := exp.RunStore(exp.StoreRun{
			Graph:       g,
			Engine:      *engine,
			Shards:      *shards,
			SyncEvery:   *syncEvery,
			DigestEvery: *digestEvery,
			Keys:        *keys,
			Seed:        *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tab.Fprint(os.Stdout)
		return
	}

	var factory protocol.Factory
	found := false
	for _, p := range exp.Roster() {
		if p.Name == *proto {
			factory, found = p.Factory, true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *proto)
		os.Exit(2)
	}

	dt, gen, err := exp.WorkloadByName(*datatype, *keys)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	sim := netsim.New(g, factory, dt, netsim.Options{
		Seed:          *seed,
		DuplicateProb: *dup,
		Reorder:       *reorder,
		MeasureCPU:    true,
	})
	sim.Run(*rounds, gen)
	quiet, converged := sim.RunQuiet(10 * *rounds)

	col := sim.Collector()
	sent := col.TotalSent()
	fmt.Printf("protocol      %s\n", *proto)
	fmt.Printf("topology      %s (%d nodes, %d edges, cycles=%t)\n", *topo, g.NumNodes(), g.NumEdges(), !g.IsAcyclic())
	fmt.Printf("datatype      %s, %d update rounds\n", dt.Name(), *rounds)
	fmt.Printf("converged     %t (after %d quiet rounds)\n", converged, quiet)
	fmt.Printf("messages      %d\n", sent.Messages)
	fmt.Printf("elements      %d\n", sent.Elements)
	fmt.Printf("payload       %d B\n", sent.PayloadBytes)
	fmt.Printf("metadata      %d B (%.1f%% of total)\n", sent.MetadataBytes,
		100*float64(sent.MetadataBytes)/float64(max(1, sent.TotalBytes())))
	fmt.Printf("avg mem/node  %.0f B (sync overhead %.0f B)\n", col.AvgMemoryPerNode(), col.AvgSyncMemoryPerNode())
	fmt.Printf("cpu           %s\n", col.TotalCPU())
	st := sim.Engine(sim.Nodes()[0]).State()
	fmt.Printf("final state   %d elements, %d B\n", st.Elements(), st.SizeBytes())
}
