// Command crdtsim runs one ad-hoc synchronization simulation and reports
// transmission, memory and convergence statistics. It is the exploratory
// counterpart to syncbench's fixed experiments.
//
// With -store it instead drives a live sharded store cluster over TCP on
// loopback through the public crdtsync API: -keys per-key counters are
// loaded through typed handles, anti-entropy converges the cluster, and
// the zero-clone read layer (Query/Scan) plus a Watch subscription are
// exercised against it.
//
// Usage:
//
//	crdtsim -protocol delta-bp+rr -topology mesh -nodes 15 -datatype gset -rounds 100
//	crdtsim -store -nodes 3 -keys 20000 -engine acked
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"crdtsync"
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
	store := flag.Bool("store", false, "drive a live TCP store cluster (public crdtsync API) instead of the simulator")
	shards := flag.Int("shards", 32, "-store: shards per replica")
	syncEvery := flag.Duration("sync-every", 50*time.Millisecond, "-store: synchronization period")
	engine := flag.String("engine", "acked", "-store: per-object engine (acked or delta)")
	digestEvery := flag.Int("digest-every", 4, "-store: digest heartbeat period in ticks (0 disables)")
	flag.Parse()

	if *store {
		runStore(*nodes, *keys, *shards, *syncEvery, *engine, *digestEvery)
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

// runStore is crdtsim's live path: a loopback TCP cluster driven
// entirely through the public crdtsync API.
func runStore(nodes, keys, shards int, syncEvery time.Duration, engineName string, digestEvery int) {
	eng, err := crdtsync.ParseEngine(engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stores, err := crdtsync.Cluster(nodes,
		crdtsync.WithID("sim"),
		crdtsync.WithShards(shards),
		crdtsync.WithEngine(eng),
		crdtsync.WithSyncEvery(syncEvery),
		crdtsync.WithDigestEvery(digestEvery),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	fmt.Printf("store cluster  %d replicas (full mesh), %d shards each, %s engine, sync every %s\n",
		nodes, stores[0].NumShards(), engineName, syncEvery)

	// A watcher on the last replica counts distinct keys it learns about
	// while the cluster loads and converges.
	w := stores[len(stores)-1].Watch(crdtsync.CounterPrefix)
	watched := make(chan int)
	go func() {
		seen := map[string]bool{}
		for ev := range w.Events() {
			seen[ev.Key] = true
		}
		watched <- len(seen)
	}()

	start := time.Now()
	for k := 0; k < keys; k++ {
		stores[k%nodes].Counter(fmt.Sprintf("key:%07d", k)).Inc(1)
	}
	if err := crdtsync.WaitConverged(stores, keys, 5*time.Minute, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("converged      %d keys on every replica in %s (digest %x)\n",
		keys, time.Since(start).Round(time.Millisecond), stores[0].Digest())

	// Zero-clone reads over the converged keyspace.
	queryStart := time.Now()
	sum := uint64(0)
	for shard := 0; shard < stores[0].NumShards(); shard++ {
		stores[0].Query(shard, func(_ string, st crdtsync.State) bool {
			sum += uint64(st.Elements())
			return true
		})
	}
	fmt.Printf("query          visited %d live objects in %s without cloning\n",
		sum, time.Since(queryStart).Round(time.Microsecond))

	var total crdtsync.Stats
	for _, st := range stores {
		total.Add(st.Stats())
	}
	fmt.Printf("wire           %d frames, %d B, %d elements shipped (%.2f per update), %d watch drops\n",
		total.Frames, total.WireBytes, total.Sent.Elements, float64(total.Sent.Elements)/float64(keys), total.WatchDropped)

	w.Close()
	fmt.Printf("watch          saw %d distinct keys change on %s\n", <-watched, stores[len(stores)-1].ID())
}
