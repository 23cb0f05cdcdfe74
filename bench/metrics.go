package main

import (
	"math"

	"crdtsync"
)

// metric is one named number. This table is the single definition of every
// metric's name, unit, direction, bound and meaning: BENCHMARK.json is
// generated from it (-manifest) and README.md documents it.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	doc    string
	value  func(r *result) float64
}

func cpuPerUpdate(r *result) float64 {
	return safeDiv(r.sumSlices(func(s slice) float64 { return float64(s.CPU) / 1e3 }), r.sumSlices(sliceUpdates))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd are the metrics a caller of crdtsync.Open would see that repeat
// on a shared box. Every workload reports every one of them, with tracing
// off. Bounds come from the measured run-to-run spread (README.md has the
// table): each is about three times the widest interquartile spread any
// workload showed, capped at the contract's 25%.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		doc:   "cluster open + paced preload + first convergence, before the timed window; median of the run's set-up rounds",
		value: func(r *result) float64 { return median(r.setups) }},
	{name: "wire_bytes_per_update", unit: "B", better: "lower", bound: 0.25,
		doc: "Σ replicas Stats().WireBytes ÷ updates, median over the window's slices: one burst of retransmissions moves one slice, not the figure",
		value: func(r *result) float64 {
			v := make([]float64, len(r.slices))
			for i, s := range r.slices {
				v[i] = safeDiv(float64(s.Wire), float64(s.Updates))
			}
			return median(v)
		}},
	{name: "heap_bytes_per_key", unit: "B", better: "lower", bound: 0.15,
		doc:   "runtime HeapAlloc after the last window has converged and two forced GCs ÷ (3 replicas × keys per replica)",
		value: func(r *result) float64 { return safeDiv(float64(r.heapAlloc), float64(numReplicas*r.windowKeys)) }},
	{name: "visible_p50_ms", unit: "ms", better: "lower", bound: 0.25,
		doc:   "probe latency, median: due time of a counter increment on replica 0 → the Watch event on replica 2 after which the counter's Value() covers it",
		value: func(r *result) float64 { return percentile(r.visible, 50) }},
}

// perLayer are the informational metrics: counts and times of single
// layers, plus the end-to-end candidates that only some workloads produce
// or that did not repeat within a bound (README.md says which and why).
// They are reported by the traced run; the ones that need the connection
// tap or the spans read 0 without it.
var perLayer = []metric{
	// Demoted end-to-end candidates. The first two are the speed metrics:
	// on the box the baseline was taken on, memory latency shifts by a
	// third for minutes at a time and they shift with it (README.md), so
	// they are compared in alternating pairs, not against a bound.
	{name: "cpu_us_per_update", unit: "us", better: "lower",
		doc:   "process user+system CPU (getrusage) over the window's slices ÷ their updates, the two generator goroutines included; an open loop's slices are the seconds of its schedule (the convergence tail is left out), a closed loop's are its rounds",
		value: cpuPerUpdate},
	{name: "converged_updates_per_s", unit: "1/s", better: "higher",
		doc: "updates ÷ time from the first update until every replica holds every key and all digests are equal: summed over a closed loop's rounds; over an open loop's whole windows, where it is the offered rate unless convergence stalls",
		value: func(r *result) float64 {
			if r.spec.openLoop {
				return safeDiv(float64(r.windowUpdates), r.window.Seconds())
			}
			return safeDiv(r.sumSlices(sliceUpdates), r.sumSlices(func(s slice) float64 { return s.Wall.Seconds() }))
		}},
	{name: "visible_p99_ms", unit: "ms", better: "lower",
		doc:   "probe latency, 99th percentile (≥1000 probes per run, so ≥10 samples lie beyond it)",
		value: func(r *result) float64 { return percentile(r.visible, 99) }},
	{name: "read_p99_us", unit: "us", better: "lower",
		doc:   "View latency on replica 2 while it receives remote writes, 99th percentile: the shard-lock hold made visible",
		value: func(r *result) float64 { return percentile(r.viewUs, 99) }},
	{name: "recovery_s", unit: "s", better: "lower",
		doc:   "repair only: Open of the restarted replica returns → all digests equal",
		value: func(r *result) float64 { return r.recovery.Seconds() }},
	{name: "recovery_wire_amp", unit: "ratio", better: "lower",
		doc:   "repair only: cluster wire bytes in the recovery window ÷ canonical bytes (key + codec.Encode(state)) of the objects on which the restored snapshot differed from a survivor",
		value: func(r *result) float64 { return safeDiv(float64(r.recoveryWire), float64(r.staleBytes)) }},
	{name: "failed_ops_ratio", unit: "ratio", better: "lower",
		doc:   "failed ÷ attempted operations (also the driver's failed/attempted counts)",
		value: func(r *result) float64 { return safeDiv(float64(r.failed), float64(r.attempted())) }},

	// The generator itself.
	{name: "bench.gen_late_p50_ms", unit: "ms", better: "lower",
		doc:   "open loop: how late after its due time the writer issued an update, median",
		value: func(r *result) float64 { return percentile(r.genLate, 50) }},
	{name: "bench.gen_late_p99_ms", unit: "ms", better: "lower",
		doc:   "the same, 99th percentile; the run is marked invalid when it exceeds 10% of visible_p50_ms",
		value: func(r *result) float64 { return percentile(r.genLate, 99) }},
	{name: "bench.probes", unit: "count", better: "higher",
		doc:   "probes resolved: the sample count behind visible_*",
		value: func(r *result) float64 { return float64(len(r.visible)) }},
	{name: "bench.reads", unit: "count", better: "higher",
		doc:   "View and Scan calls the reader goroutine issued",
		value: func(r *result) float64 { return float64(r.reads) }},
	{name: "bench.window_s", unit: "s", better: "lower",
		doc:   "length of the timed window",
		value: func(r *result) float64 { return r.window.Seconds() }},
	{name: "bench.stale_keys", unit: "count", better: "lower",
		doc:   "repair only: objects on which the restored snapshot differed from a survivor",
		value: func(r *result) float64 { return float64(r.staleKeys) }},

	// protocol: what the engines shipped (Stats().Sent, Memory()).
	{name: "protocol.elements_per_update", unit: "ratio", better: "lower",
		doc:   "lattice elements shipped ÷ updates; the optimum in a 3-node full mesh is 4 (2 from the origin, 1 forward from each receiver, dropped there by RR)",
		value: func(r *result) float64 { return safeDiv(float64(r.stats.Sent.Elements), float64(r.windowUpdates)) }},
	{name: "protocol.metadata_byte_share", unit: "ratio", better: "lower",
		doc: "metadata ÷ (metadata + payload) bytes in the engines' own accounting",
		value: func(r *result) float64 {
			return safeDiv(float64(r.stats.Sent.MetadataBytes), float64(r.stats.Sent.TotalBytes()))
		}},
	{name: "protocol.buffer_bytes_peak", unit: "B", better: "lower",
		doc:   "Σ replicas Memory().BufferBytes (δ-buffers) when the writer has issued its last update: the peak of a closed loop",
		value: func(r *result) float64 { return float64(r.bufferBytes) }},
	{name: "protocol.metadata_bytes_peak", unit: "B", better: "lower",
		doc:   "Σ replicas Memory().MetadataBytes at the same moment",
		value: func(r *result) float64 { return float64(r.metadataBytes) }},
	{name: "protocol.sim_classic_over_bprr_elements", unit: "ratio", better: "higher",
		doc:   "paper fidelity (Fig. 7): netsim, 15-node degree-4 partial mesh, GSet, elements shipped by classic delta ÷ by BP+RR; exact and seed-independent",
		value: func(r *result) float64 { return r.simRatio }},

	// transport: frames, queues, repair, pool, snapshots (Stats()).
	{name: "transport.frames_per_update", unit: "ratio", better: "lower",
		doc:   "frames enqueued ÷ updates",
		value: func(r *result) float64 { return safeDiv(float64(r.stats.Frames), float64(r.windowUpdates)) }},
	{name: "transport.items_per_frame", unit: "ratio", better: "higher",
		doc:   "object messages per data frame on the wire (tap)",
		value: func(r *result) float64 { return safeDiv(float64(r.wire.items), float64(r.wire.dataFrames)) }},
	{name: "transport.digest_frames", unit: "count", better: "lower",
		doc: "standalone digest frames", value: func(r *result) float64 { return float64(r.stats.DigestFrames) }},
	{name: "transport.piggybacked_digests", unit: "count", better: "higher",
		doc:   "data frames that also carried the digest vector",
		value: func(r *result) float64 { return float64(r.stats.PiggybackedDigests) }},
	{name: "transport.tree_rounds", unit: "count", better: "lower",
		doc: "Merkle drill-down rounds initiated", value: func(r *result) float64 { return float64(r.stats.TreeRounds) }},
	{name: "transport.want_shards", unit: "count", better: "lower",
		doc: "shards requested in full", value: func(r *result) float64 { return float64(r.stats.WantShards) }},
	{name: "transport.repair_shards", unit: "count", better: "lower",
		doc: "full shards served", value: func(r *result) float64 { return float64(r.stats.RepairShards) }},
	{name: "transport.repair_ranges", unit: "count", better: "lower",
		doc: "leaf/node ranges served", value: func(r *result) float64 { return float64(r.stats.RepairRanges) }},
	{name: "transport.deduped_wants", unit: "count", better: "higher",
		doc:   "digest mismatches absorbed by an in-flight repair",
		value: func(r *result) float64 { return float64(r.stats.DedupedWants) }},
	{name: "transport.peer_dropped_frames", unit: "count", better: "lower",
		doc:   "frames evicted from a peer queue or lost to a failed write",
		value: func(r *result) float64 { return float64(r.peerSum(func(p peerStats) int { return p.Dropped })) }},
	{name: "transport.peer_coalesced", unit: "count", better: "higher",
		doc:   "queued frames merged into an earlier one on drain",
		value: func(r *result) float64 { return float64(r.peerSum(func(p peerStats) int { return p.Coalesced })) }},
	{name: "transport.reconnects", unit: "count", better: "lower",
		doc:   "connections re-established after a failure",
		value: func(r *result) float64 { return float64(r.peerSum(func(p peerStats) int { return p.Reconnects })) }},
	{name: "transport.queue_depth_p99", unit: "count", better: "lower",
		doc:   "Σ peers queued frames, sampled every 50 ms, 99th percentile",
		value: func(r *result) float64 { return percentile(r.queueDepth, 99) }},
	{name: "transport.split_frames", unit: "count", better: "lower",
		doc: "frames that are pieces of a split batch", value: func(r *result) float64 { return float64(r.stats.SplitFrames) }},
	{name: "transport.oversized_dropped", unit: "count", better: "lower",
		doc: "messages larger than a frame", value: func(r *result) float64 { return float64(r.stats.OversizedDropped) }},
	{name: "transport.watch_dropped", unit: "count", better: "lower",
		doc: "watch notifications dropped", value: func(r *result) float64 { return float64(r.stats.WatchDropped) }},
	{name: "transport.pool_busy_share", unit: "ratio", better: "lower",
		doc: "Σ workers' busy time in parallel shard stages ÷ (window × workers × replicas)",
		value: func(r *result) float64 {
			busy := 0.0
			for _, ns := range r.stats.SyncWorkerBusyNs {
				busy += float64(ns)
			}
			return safeDiv(busy, float64(r.window)*float64(len(r.stats.SyncWorkerBusyNs))*numReplicas)
		}},
	{name: "transport.pool_imbalance", unit: "ratio", better: "lower",
		doc: "busiest ÷ least busy pool worker (0 when a worker never ran)",
		value: func(r *result) float64 {
			lo, hi := math.Inf(1), 0.0
			for _, ns := range r.stats.SyncWorkerBusyNs {
				lo, hi = math.Min(lo, float64(ns)), math.Max(hi, float64(ns))
			}
			if math.IsInf(lo, 1) {
				return 0
			}
			return safeDiv(hi, lo)
		}},
	{name: "transport.snapshots_written", unit: "count", better: "lower",
		doc: "shard snapshot files written", value: func(r *result) float64 { return float64(r.stats.SnapshotsWritten) }},
	{name: "transport.snapshot_bytes", unit: "B", better: "lower",
		doc: "their encoded size", value: func(r *result) float64 { return float64(r.stats.SnapshotBytes) }},
	{name: "transport.scan_ms_p50", unit: "ms", better: "lower",
		doc:   "the reader's Scan of every counter on replica 2, median",
		value: func(r *result) float64 { return median(r.scanMs) }},

	// wire: bytes the tap saw on the sockets, by what they carry.
	{name: "wire.delta_bytes", unit: "B", better: "lower",
		doc:   "keys + δ-group payloads of data items, less wire.repair_bytes",
		value: func(r *result) float64 { return math.Max(0, float64(r.wire.delta)-float64(r.stats.RepairBytes)) }},
	{name: "wire.ack_bytes", unit: "B", better: "lower",
		doc: "keys + payloads of acknowledgement items", value: func(r *result) float64 { return float64(r.wire.ack) }},
	{name: "wire.digest_bytes", unit: "B", better: "lower",
		doc:   "standalone digest messages + piggybacked digest vectors",
		value: func(r *result) float64 { return float64(r.wire.digest) }},
	{name: "wire.tree_bytes", unit: "B", better: "lower",
		doc: "Merkle drill-down messages", value: func(r *result) float64 { return float64(r.wire.tree) }},
	{name: "wire.repair_bytes", unit: "B", better: "lower",
		doc:   "key + state bytes served as shard or range repairs (Stats().RepairBytes; they travel as ordinary δ-groups, so the tap cannot tell them apart)",
		value: func(r *result) float64 { return math.Min(float64(r.stats.RepairBytes), float64(r.wire.delta)) }},
	{name: "wire.header_bytes", unit: "B", better: "lower",
		doc:   "everything else: length prefix, sender id, frame/batch headers, accounting records, shard indices",
		value: func(r *result) float64 { return float64(r.wire.header) }},
	{name: "wire.unaccounted_pct", unit: "%", better: "lower",
		doc: "|Σ wire.* − Stats().WireBytes| ÷ WireBytes × 100: enqueued frames that never reached a socket (dropped, or headers saved by coalescing)",
		value: func(r *result) float64 {
			return 100 * safeDiv(math.Abs(float64(r.wire.total())-float64(r.stats.WireBytes)), float64(r.stats.WireBytes))
		}},
}

type peerStats = crdtsync.PeerStats

func (r *result) peerSum(f func(peerStats) int) int {
	n := 0
	for _, p := range r.stats.Peers {
		n += f(p)
	}
	return n
}

// attempted counts every operation a run issued or checked: updates,
// reads, and the convergence waits.
func (r *result) attempted() int {
	n := r.updates + r.reads + 1
	if r.spec.restart {
		n += 2
	}
	return n
}

func init() {
	perLayer = append(perLayer, spanMetrics()...)
	perLayer = append(perLayer, replayMetrics()...)
}
