// Command syncbench regenerates the tables and figures of the paper's
// evaluation (§V). Each experiment prints the rows/series the paper plots.
//
// Usage:
//
//	syncbench -exp all                 # every experiment at paper scale
//	syncbench -exp fig7 -scale test    # one experiment, reduced scale
//	syncbench -exp store -keys 100000  # sharded multi-object TCP benchmark
//	syncbench -list                    # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"crdtsync/internal/exp"
)

func main() {
	expID := flag.String("exp", "all", "experiment id (fig1, fig7, fig8, fig9, fig10, fig11, fig12, tab1, tab2, store, all)")
	scale := flag.String("scale", "paper", "configuration scale: paper or test")
	seed := flag.Int64("seed", 42, "random seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	keys := flag.Int("keys", 100000, "store/persist experiments: number of distinct keys")
	nodeCount := flag.Int("nodes", 3, "store experiment: TCP cluster size (full mesh)")
	shards := flag.Int("shards", 64, "store/persist experiments: shards per node (rounded to a power of two)")
	syncEvery := flag.Duration("sync-every", 100*time.Millisecond, "store/persist experiments: synchronization period")
	engine := flag.String("engine", "acked", "store experiment: inner protocol (acked or delta)")
	digestEvery := flag.Int("digest-every", 4, "store experiment: ship per-shard digests every N ticks (0 disables digest anti-entropy)")
	faultDrop := flag.Float64("fault-drop", 0, "store experiment: drop this fraction of frames on every link (0 disables fault injection)")
	peerQueue := flag.Int("peer-queue", 0, "store experiment: per-peer outbound frame queue length (0 = default)")
	peerQueueBytes := flag.Int("peer-queue-bytes", 0, "store experiment: per-peer outbound queue byte budget (0 = default)")
	scan := flag.Bool("scan", false, "store experiment: after convergence, benchmark the read layer (Get clone baseline vs zero-clone Query vs sorted Scan)")
	persistOut := flag.String("persist-out", "", "persist experiment: write the BENCH_persist.json artifact to this path")
	flag.Parse()

	if *list {
		fmt.Println("fig1   GSet mesh: elements/round + CPU ratio (classic vs state)")
		fmt.Println("fig7   transmission ratio vs BP+RR (GSet, GCounter; tree, mesh)")
		fmt.Println("fig8   transmission ratio vs BP+RR (GMap 10/30/60/100%)")
		fmt.Println("fig9   metadata bytes per node vs cluster size")
		fmt.Println("fig10  memory ratio vs BP+RR (mesh)")
		fmt.Println("fig11  Retwis transmission + memory vs Zipf coefficient")
		fmt.Println("fig12  Retwis CPU overhead of classic vs BP+RR")
		fmt.Println("tab1   micro-benchmark catalog")
		fmt.Println("tab2   Retwis workload characterization")
		fmt.Println("store  sharded multi-object store over a real TCP cluster")
		fmt.Println("persist crash-restart durability: snapshot restore + staleness-proportional repair")
		fmt.Println("all    everything above except store and persist")
		return
	}

	if *expID == "persist" {
		runPersistBench(persistBenchConfig{
			Keys:      *keys,
			Shards:    *shards,
			SyncEvery: *syncEvery,
			Out:       *persistOut,
		})
		return
	}

	if *expID == "store" {
		runStoreBench(storeBenchConfig{
			Keys:           *keys,
			Nodes:          *nodeCount,
			Shards:         *shards,
			SyncEvery:      *syncEvery,
			Engine:         *engine,
			DigestEvery:    *digestEvery,
			FaultDrop:      *faultDrop,
			PeerQueueLen:   *peerQueue,
			PeerQueueBytes: *peerQueueBytes,
			Scan:           *scan,
			Seed:           *seed,
		})
		return
	}

	var cfg exp.Config
	switch *scale {
	case "paper":
		cfg = exp.DefaultConfig()
	case "test":
		cfg = exp.TestConfig()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want paper or test)\n", *scale)
		os.Exit(2)
	}
	cfg.Seed = *seed

	runOne := func(id string) {
		start := time.Now()
		var t *exp.Table
		switch id {
		case "fig1":
			t = exp.Fig1(cfg)
		case "fig7":
			t = exp.Fig7(cfg)
		case "fig8":
			t = exp.Fig8(cfg)
		case "fig9":
			t = exp.Fig9(cfg)
		case "fig10":
			t = exp.Fig10(cfg)
		case "fig11":
			t = exp.Fig11(cfg)
		case "fig12":
			t = exp.Fig12(cfg)
		case "tab1":
			t = exp.TableI()
		case "tab2":
			t = exp.TableII(cfg)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", id)
			os.Exit(2)
		}
		t.Fprint(os.Stdout)
		fmt.Printf("(%s in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if *expID != "all" {
		runOne(*expID)
		return
	}
	for _, id := range []string{"tab1", "tab2", "fig1", "fig7", "fig8", "fig9", "fig10"} {
		runOne(id)
	}
	// fig11 and fig12 share one Retwis sweep.
	start := time.Now()
	points := exp.RetwisSweep(cfg)
	exp.Fig11From(points).Fprint(os.Stdout)
	fmt.Println()
	exp.Fig12From(points).Fprint(os.Stdout)
	fmt.Printf("(fig11+fig12 in %s)\n", time.Since(start).Round(time.Millisecond))
}
