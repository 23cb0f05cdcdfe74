package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run follows each probe across the layer boundaries the
// harness can see from outside the stores: the handle call, the sync ticks
// it drives itself, the tapped socket writes and reads, and the watch
// event. Boundaries are forced into time order, so the spans of one probe
// tile its end-to-end latency exactly.

// spanNames are the boundaries in path order.
var spanNames = []string{
	"bench.gen_late",       // due time → handle call (generator lateness)
	"crdtsync.update",      // handle call → return
	"transport.tick_wait",  // update return → next sync tick starts on the writer
	"transport.tick",       // tick start → tick returns or its frame's write begins (engine Sync + encode + pack + enqueue)
	"transport.queue_wait", // → the peer writer calls Write for the frame carrying the probe
	"transport.write",      // inside conn.Write (length prefix + body)
	"transport.wire",       // write return → last byte of the frame read at the far tap
	"transport.deliver",    // → that connection's next Read call (unpack + apply + reply + notify, the read loop is synchronous)
	"transport.notify",     // → the watch consumer holds the event and has read the value
}

// spanRec is one span of the written trace, times in µs from window start.
type spanRec struct {
	Probe  int     `json:"probe"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Parent string  `json:"parent,omitempty"`
}

type traceData struct {
	spans     map[string][]float64 // ms, per span name
	total     []float64            // ms, per matched probe
	unmatched int                  // probes whose frame the tap never saw
	records   []spanRec
}

// collectTrace joins the probe board, the tick log and the tap's frame
// logs. It runs after the reader goroutine has been joined.
func collectTrace(c *cluster, board *probeBoard, t0 time.Time) *traceData {
	c.tickMu.Lock()
	ticks := append([]tickRec(nil), c.ticks...)
	c.tickMu.Unlock()
	c.tap.mu.Lock()
	writes := append([]writeRec(nil), c.tap.writes...)
	reads := append([]readRec(nil), c.tap.reads...)
	c.tap.mu.Unlock()

	// first[k][v-1] is the first written frame that carried probe counter
	// k at value v or above.
	first := make([][]int, numProbeKeys)
	for i, w := range writes {
		for _, h := range w.hits {
			for uint64(len(first[h.key])) < h.value {
				first[h.key] = append(first[h.key], i)
			}
		}
	}
	td := &traceData{spans: make(map[string][]float64)}
	us := func(t time.Time) float64 { return float64(t.Sub(t0)) / 1e3 }
	for i, p := range board.probes {
		seen := board.seen[i]
		if seen.IsZero() {
			continue
		}
		f := first[p.key]
		if uint64(len(f)) < p.value || f[p.value-1] >= len(reads) {
			td.unmatched++
			continue
		}
		w, rd := writes[f[p.value-1]], reads[f[p.value-1]]
		// The tick that packed the probe: the first to start once the
		// update was under way.
		k := sort.Search(len(ticks), func(j int) bool { return !ticks[j].start.Before(p.updStart) })
		if k == len(ticks) {
			td.unmatched++
			continue
		}
		tickEnd := ticks[k].end
		if w.start.Before(tickEnd) {
			tickEnd = w.start
		}
		bounds := []time.Time{p.due, p.updStart, p.updEnd, ticks[k].start, tickEnd,
			w.start, w.end, rd.complete, rd.next, seen}
		for j := 1; j < len(bounds); j++ {
			if bounds[j].Before(bounds[j-1]) {
				bounds[j] = bounds[j-1]
			}
		}
		td.records = append(td.records, spanRec{Probe: i, Name: "probe", Start: us(bounds[0]), End: us(bounds[len(bounds)-1])})
		for j, name := range spanNames {
			td.spans[name] = append(td.spans[name], float64(bounds[j+1].Sub(bounds[j]))/1e6)
			td.records = append(td.records, spanRec{Probe: i, Name: name, Start: us(bounds[j]), End: us(bounds[j+1]), Parent: "probe"})
		}
		td.total = append(td.total, float64(bounds[len(bounds)-1].Sub(bounds[0]))/1e6)
	}
	return td
}

// write stores the spans as bench/out/trace-<workload>.json.
func (td *traceData) write(outDir string, r *result) error {
	data, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Spans    []spanRec `json:"spans"`
	}{r.spec.name, r.seed, td.records})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+r.spec.name+".json"), data, 0o644)
}

// budgetMs is the sum of the span medians: what the per-layer budget
// says a probe takes.
func (td *traceData) budgetMs() float64 {
	sum := 0.0
	for _, name := range spanNames {
		sum += median(td.spans[name])
	}
	return sum
}

func spanMetrics() []metric {
	var out []metric
	for _, name := range spanNames {
		name := name
		for _, p := range []struct {
			suffix string
			pct    float64
		}{{".p50_ms", 50}, {".p99_ms", 99}} {
			p := p
			out = append(out, metric{name: "span." + name + p.suffix, unit: "ms", better: "lower",
				doc: "span " + name + " over the traced run's probes (flat spans: self time equals duration)",
				value: func(r *result) float64 {
					if r.trace == nil {
						return 0
					}
					return percentile(r.trace.spans[name], p.pct)
				}})
		}
	}
	return append(out,
		metric{name: "trace.budget_residual_pct", unit: "%", better: "lower",
			doc: "|Σ span medians − visible_p50_ms of the untraced reference phase| ÷ that visible_p50_ms × 100",
			value: func(r *result) float64 {
				if r.trace == nil || r.ref == nil {
					return 0
				}
				want := percentile(r.ref.visible, 50)
				return 100 * safeDiv(math.Abs(r.trace.budgetMs()-want), want)
			}},
		metric{name: "trace.overhead_pct", unit: "%", better: "lower",
			doc: "cpu_us_per_update of the traced phase over the untraced reference phase of the same invocation, − 1, × 100",
			value: func(r *result) float64 {
				if r.ref == nil {
					return 0
				}
				return 100 * (safeDiv(cpuPerUpdate(r), cpuPerUpdate(r.ref)) - 1)
			}},
		metric{name: "trace.unmatched_probes", unit: "count", better: "lower",
			doc: "probes left out of the spans because the tap never saw a frame carrying them on the direct connection (they arrived by relay or repair)",
			value: func(r *result) float64 {
				if r.trace == nil {
					return 0
				}
				return float64(r.trace.unmatched)
			}},
	)
}

// sampler reads the peer queues' depth while a traced window runs. The
// memory accounting is read once, by sampleMemory: Memory walks every
// object of a replica on all cores, and doing that on a timer shows up in
// the probes' tail.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

const sampleEvery = 50 * time.Millisecond

func startSampler(c *cluster, r *result) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			queued := 0
			for _, st := range c.stores {
				for _, p := range st.Stats().Peers {
					queued += p.Queued
				}
			}
			r.queueDepth = append(r.queueDepth, float64(queued))
		}
	}()
	return s
}

func (s *sampler) close() {
	close(s.stop)
	s.wg.Wait()
}

// sampleMemory records the replicas' δ-buffer and metadata bytes at the
// moment the writer has issued its last update — for a closed loop, when
// the buffers are fullest.
func sampleMemory(c *cluster, r *result) {
	for _, st := range c.stores {
		m := st.Memory()
		r.bufferBytes += m.BufferBytes
		r.metadataBytes += m.MetadataBytes
	}
}
