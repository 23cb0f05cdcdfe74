// Command bench is the repository's end-to-end benchmark: a 3-replica
// loopback cluster driven through the public crdtsync API by one writer
// and one reader goroutine, checked against an oracle, with a traced mode
// that splits the same run into a per-layer budget. README.md documents
// the workloads and every metric; BENCHMARK.json is the driver's contract.
//
//	bash bench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -repeat 5            # spread of every end-to-end metric
//	bash bench/run.sh -smoke               # all four workloads in ~3 s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds and the default --seconds.
const runSeconds = 20

// envelope records where and on what a result was measured.
type envelope struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      int            `json:"trace"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Commit     string         `json:"commit"`
	Date       string         `json:"date"`
	Sizes      map[string]any `json:"sizes"`
}

// value is one metric as the driver reads it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type options struct {
	seed    int64
	seconds float64
	setups  int // set-up rounds of an untraced run
	trace   bool
	out     string
	commit  string
}

func main() {
	workloads := flag.String("workload", "all", "workload name, comma-separated list (run in that order), or all")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", runSeconds, "length of the timed window's schedule")
	trace := flag.Int("trace", 0, "1 = traced run: reports the per-layer metrics and writes the spans")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for traces, results and temporary snapshot files")
	repeat := flag.Int("repeat", 0, "run each workload this many times (seed, seed+1, …) and print the spread of every end-to-end metric")
	smoke := flag.Bool("smoke", false, "shrink every workload so that all four finish in about three seconds")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables and exit")
	doc := flag.Bool("doc", false, "print the metric tables of README.md as generated from the metric definitions and exit")
	commit := flag.String("commit", "unknown", "commit recorded in the result envelope")
	flag.Parse()

	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}
	if *doc {
		for _, table := range [][]metric{endToEnd, perLayer} {
			fmt.Println("| name | unit | better | what it is |\n|---|---|---|---|")
			for _, m := range table {
				fmt.Printf("| `%s` | %s | %s | %s |\n", m.name, m.unit, m.better, m.doc)
			}
			fmt.Println()
		}
		return
	}
	var todo []spec
	for _, name := range strings.Split(*workloads, ",") {
		if name == "all" {
			todo = append(todo, specs...)
			continue
		}
		s, ok := specByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			os.Exit(2)
		}
		todo = append(todo, s)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	o := options{seed: *seed, seconds: *seconds, setups: defaultSetups, trace: *trace == 1, out: *out, commit: *commit}
	if *smoke {
		o.setups, o.seconds = 1, 0.5
		for i := range todo {
			todo[i] = todo[i].smoke()
		}
	}
	ok := true
	switch {
	case *repeat > 0:
		ok = runRepeat(todo, o, *repeat)
	default:
		for _, s := range todo {
			r, err := runOne(s, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			ok = ok && r.oracleBad == 0
			printResult(r, o)
		}
	}
	if !ok {
		os.Exit(3)
	}
}

// runOne measures one workload. The traced run spends half of --seconds on
// an untraced reference phase and half on the traced phase, so that the
// tracing overhead and the budget's residual are taken against the same
// build, seed and minute of the same box.
func runOne(s spec, o options) (*result, error) {
	if !o.trace {
		return runWorkload(s, o.seed, o.seconds, o.setups, false, o.out)
	}
	// setup_s is an end-to-end metric, which the traced run does not
	// report: it sets up each phase once.
	ref, err := runWorkload(s, o.seed, o.seconds/2, 1, false, o.out)
	if err != nil {
		return nil, err
	}
	r, err := runWorkload(s, o.seed, o.seconds/2, 1, true, o.out)
	if err != nil {
		return nil, err
	}
	r.ref = ref
	r.failed += ref.failed
	r.failures = append(r.failures, ref.failures...)
	r.oracleBad += ref.oracleBad
	if r.replay, err = replay(s, o.seed, o.seconds/2, r.frames, o.out); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	r.frames = nil
	r.simRatio = simClassicOverBPRR()
	if err := r.trace.write(o.out, r); err != nil {
		return nil, err
	}
	return r, nil
}

// valid applies the generator's own check: an open-loop run whose writer
// ran late by more than a tenth of the median probe latency measured the
// generator, not the stores.
func (r *result) valid() bool {
	if !r.spec.openLoop {
		return true
	}
	return percentile(r.genLate, 99) <= 0.1*percentile(r.visible, 50)
}

func (r *result) envelope(o options) envelope {
	s := r.spec
	trace := 0
	if o.trace {
		trace = 1
	}
	return envelope{
		Workload: s.name, Seed: r.seed, Seconds: o.seconds, Trace: trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: o.commit, Date: time.Now().UTC().Format(time.RFC3339),
		Sizes: map[string]any{
			"replicas": numReplicas, "shards": numShards, "preload_keys": s.preload,
			"updates": r.windowUpdates, "keys_per_replica": r.windowKeys, "probes": r.probes,
			"sync_every_ms": float64(s.syncEvery) / 1e6, "digest_every": s.digestEvery,
			"drop_rate": s.dropRate, "restart_keys": s.restartKeys, "setup_rounds": len(r.setups),
		},
	}
}

// values evaluates a metric table on a result.
func values(table []metric, r *result) map[string]value {
	m := make(map[string]value, len(table))
	for _, mt := range table {
		m[mt.name] = value{mt.value(r), mt.unit}
	}
	return m
}

// printResult prints every metric by name and unit, the envelope, the
// verdicts, and — last — the driver's line; it also leaves the same in
// bench/out/result-<workload>-trace<0|1>.json.
func printResult(r *result, o options) {
	env := r.envelope(o)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("# %s\n", envJSON)
	e2e, layers := values(endToEnd, r), values(perLayer, r)
	fmt.Println("## end to end")
	for _, mt := range endToEnd {
		fmt.Printf("%-44s %14.4f %s\n", mt.name, e2e[mt.name].Value, mt.unit)
	}
	fmt.Println("## per layer")
	for _, mt := range perLayer {
		fmt.Printf("%-44s %14.4f %s\n", mt.name, layers[mt.name].Value, mt.unit)
	}
	if r.trace != nil {
		fmt.Println("## span budget (ms; flat spans, so self time = duration)")
		fmt.Printf("%-24s %10s %10s %10s\n", "span", "p50", "p99", "self p50")
		for _, name := range spanNames {
			v := r.trace.spans[name]
			fmt.Printf("%-24s %10.4f %10.4f %10.4f\n", name, percentile(v, 50), percentile(v, 99), percentile(v, 50))
		}
		fmt.Printf("%-24s %10.4f   (Σ medians; traced probes' own median %.4f, untraced visible_p50_ms %.4f)\n",
			"budget", r.trace.budgetMs(), median(r.trace.total), percentile(r.ref.visible, 50))
	}
	for _, f := range r.failures {
		fmt.Println("FAILED:", f)
	}
	if !r.valid() {
		fmt.Printf("INVALID: generator late, p99 %.3f ms > 10%% of visible_p50_ms %.3f ms\n",
			percentile(r.genLate, 99), percentile(r.visible, 50))
	}
	rep := report{Correct: r.oracleBad == 0, Attempted: r.attempted(), Failed: r.failed, Metrics: e2e}
	if o.trace {
		rep.Metrics = layers
		rep.Attempted += r.ref.attempted()
	}
	all := struct {
		Envelope envelope         `json:"envelope"`
		Valid    bool             `json:"valid"`
		Report   report           `json:"report"`
		EndToEnd map[string]value `json:"end_to_end"`
		PerLayer map[string]value `json:"per_layer"`
		Slices   []slice          `json:"slices"`
	}{env, r.valid(), rep, e2e, layers, r.slices}
	if data, err := json.MarshalIndent(all, "", " "); err == nil {
		name := fmt.Sprintf("result-%s-trace%d.json", r.spec.name, env.Trace)
		if err := os.WriteFile(filepath.Join(o.out, name), data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
}

// runRepeat is the repeatability self-check: every workload n times on
// this one build, then per end-to-end metric the median, quartiles and
// interquartile spread as a share of the median, against the bound.
func runRepeat(todo []spec, o options, n int) bool {
	ok := true
	table := endToEnd
	if o.trace {
		table = perLayer
	}
	for _, s := range todo {
		samples := make(map[string][]float64)
		for i := 0; i < n; i++ {
			oi := o
			oi.seed = o.seed + int64(i)
			r, err := runOne(s, oi)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return false
			}
			ok = ok && r.oracleBad == 0
			for name, v := range values(table, r) {
				samples[name] = append(samples[name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: failed %d/%d %v\n", s.name, oi.seed, r.failed, r.attempted(), r.failures)
		}
		fmt.Printf("## %s, %d runs\n", s.name, n)
		fmt.Printf("%-44s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, mt := range table {
			v := samples[mt.name]
			q1, q3 := quartiles(v)
			verdict := ""
			if mt.bound > 0 && mt.name != "setup_s" && spread(v) > mt.bound/3 {
				verdict = "  > bound/3"
			}
			fmt.Printf("%-44s %12.4f %12.4f %12.4f %7.1f%% %7.0f%%%s\n",
				mt.name, median(v), q1, q3, 100*spread(v), 100*mt.bound, verdict)
		}
	}
	return ok
}

// manifestJSON renders BENCHMARK.json from the workload and metric tables.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, s := range specs {
		m.Workloads = append(m.Workloads, wl{s.name, s.why})
	}
	for _, mt := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{mt.name, mt.unit, mt.better, mt.bound})
	}
	for _, mt := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{mt.name, mt.unit, mt.better})
	}
	data, _ := json.MarshalIndent(m, "", "  ")
	return append(data, '\n')
}
