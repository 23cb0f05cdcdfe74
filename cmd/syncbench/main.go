// Command syncbench regenerates the tables and figures of the paper's
// evaluation (§V). Each experiment prints the rows/series the paper plots.
//
// Usage:
//
//	syncbench -exp all                 # every experiment at paper scale
//	syncbench -exp fig7 -scale test    # one experiment, reduced scale
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
	expID := flag.String("exp", "all", "experiment id (fig1, fig7, fig8, fig9, fig10, fig11, fig12, tab1, tab2, all)")
	scale := flag.String("scale", "paper", "configuration scale: paper or test")
	seed := flag.Int64("seed", 42, "random seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
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
		fmt.Println("all    everything above")
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
