package main

import (
	"time"

	"crdtsync"
)

// Every workload runs the same cluster shape; only the knobs in spec
// differ.
const (
	numReplicas = 3
	numShards   = 64
	// writeReplica and watchReplica are the two ends of a probe: written
	// through a handle on the first, observed by a Watch on the second.
	writeReplica = 0
	watchReplica = 2
)

// spec is one workload. Sizes are per second of --seconds so that one
// driver-chosen run length scales all four the same way.
type spec struct {
	name string
	// why is the one-sentence rationale BENCHMARK.json records.
	why string

	engine      crdtsync.Engine
	syncEvery   time.Duration
	digestEvery int

	// openLoop paces updates at ratePerSec regardless of progress and
	// times probes from their due time; a closed loop issues
	// ratePerSec×seconds fresh keys as fast as the one writer goroutine
	// can and is timed to convergence.
	openLoop   bool
	ratePerSec int
	// freshKeys makes every update create a new object instead of drawing
	// its key from the preloaded ones; closed loops always do.
	freshKeys bool
	// rounds splits a closed loop's ingest: each round is written back to
	// back and timed to convergence, and the run reports the median round.
	rounds int
	// preload is the number of keys written and converged during set-up,
	// paced at preloadPerSec; open-loop updates draw their keys from these.
	preload       int
	preloadPerSec int
	// probeEvery makes one update in probeEvery of an open loop a probe.
	// Closed loops probe afterwards (see quietProbes).
	probeEvery int

	// dropRate is the share of outbound frames every replica's dialer
	// drops (both directions of every link), injected by transport.Fault.
	dropRate float64
	// restart adds the crash-restart phase: SnapshotNow on the watch
	// replica mid-window, then close it, write restartKeys more keys on
	// the others, heal the loss and reopen it from the stale snapshot.
	restart     bool
	restartKeys int
}

// specs are the four workloads, sized on a 2-core box (see README.md for
// the measurements behind each number).
var specs = []spec{
	{
		name:   "steady",
		why:    "open loop, 2000 updates/s over 20000 existing keys, ~10 items per 5 ms tick: per-frame and per-tick costs (tick, pack, queue, socket, acks, watch) dominate, per-item lattice work does not",
		engine: crdtsync.EngineAcked, syncEvery: 5 * time.Millisecond,
		openLoop: true, ratePerSec: 2000, preload: 20000, preloadPerSec: 4000, probeEvery: 20,
	},
	{
		name:   "bulk",
		why:    "closed loop, delta engine, every key new, thousands of items per frame: per-item cost (mutator, join, delta buffer, encode, unpack, decode, object creation, shard pool) dominates, not per-frame cost",
		engine: crdtsync.EngineDelta, syncEvery: 20 * time.Millisecond,
		ratePerSec: 15000, freshKeys: true, rounds: 10, preload: 2000, preloadPerSec: 20000,
	},
	{
		name:   "bulk-acked",
		why:    "open loop, 6000 fresh keys/s under the default acked engine: the bulk ingest's per-item path plus acks and retransmission, so batching harder or acking lazily shows its cost here",
		engine: crdtsync.EngineAcked, syncEvery: 20 * time.Millisecond,
		openLoop: true, ratePerSec: 6000, freshKeys: true, probeEvery: 60, preload: 2000, preloadPerSec: 4000,
	},
	{
		name:   "repair",
		why:    "open loop, 500 updates/s, 10% frame loss, digests every 10th tick, restart from a stale snapshot: digest recompute, Merkle drill-down, range repair and snapshot encode/restore run only here",
		engine: crdtsync.EngineDelta, syncEvery: 20 * time.Millisecond, digestEvery: 10,
		openLoop: true, ratePerSec: 500, preload: 20000, preloadPerSec: 20000, probeEvery: 10,
		dropRate: 0.10, restart: true, restartKeys: 1000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// smoke shrinks a workload so all four finish in about three seconds.
func (s spec) smoke() spec {
	s.preload = min(s.preload, 1000)
	s.restartKeys = min(s.restartKeys, 100)
	if !s.openLoop {
		s.ratePerSec = min(s.ratePerSec, 8000)
	}
	return s
}

// updates is the number of updates the timed window issues.
func (s spec) updates(seconds float64) int {
	return int(float64(s.ratePerSec) * seconds)
}
