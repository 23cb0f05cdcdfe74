// Storecluster runs a sharded multi-object store on a real TCP cluster
// through the public crdtsync API: three replicas, each owning 64 shards
// of a 100 000-counter keyspace, synchronized with acked delta-based
// BP+RR per object. Updates take turns on their replica's one core lock
// whatever their keys — the store handles one event at a time, as the
// paper's Algorithm 1 does — while reads take only the read lock of the
// shard they read; each flush or sync tick coalesces every dirty object's
// delta into bounded batched frames per peer — the deployment shape of
// the paper's Retwis evaluation (§V-C), scaled past it.
//
// On top of the delta traffic the replicas run digest anti-entropy:
// every few ticks each ships its per-shard digest vector, and peers pull
// in full only the shards whose digests differ. Once the cluster
// converges, the example demonstrates the steady state — idle ticks cost
// a constant digest heartbeat, not a keyspace scan, because clean shards
// are skipped without even taking their locks.
//
// Run with: go run ./examples/storecluster [-keys 100000] [-nodes 3] [-shards 64]
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"crdtsync"
)

func main() {
	keys := flag.Int("keys", 100000, "distinct counters across the cluster")
	nodes := flag.Int("nodes", 3, "replica count (full mesh)")
	shards := flag.Int("shards", 64, "shards per replica")
	syncEvery := flag.Duration("sync-every", 100*time.Millisecond, "synchronization period")
	digestEvery := flag.Int("digest-every", 4, "digest heartbeat period in ticks (0 disables)")
	flag.Parse()

	stores, err := crdtsync.Cluster(*nodes,
		crdtsync.WithID("replica"),
		crdtsync.WithShards(*shards),
		// Acked deltas retransmit until acknowledged, so a dropped frame
		// is repaired instead of silently diverging.
		crdtsync.WithEngine(crdtsync.EngineAcked),
		crdtsync.WithSyncEvery(*syncEvery),
		crdtsync.WithDigestEvery(*digestEvery),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	fmt.Printf("started %d replicas (full mesh), %d shards each, sync every %s, digests every %d ticks\n",
		*nodes, stores[0].NumShards(), *syncEvery, *digestEvery)

	// Each replica increments a disjoint slice of the keyspace
	// concurrently, through typed counter handles.
	start := time.Now()
	var wg sync.WaitGroup
	for i, st := range stores {
		wg.Add(1)
		go func(st *crdtsync.Store, i int) {
			defer wg.Done()
			for k := i; k < *keys; k += *nodes {
				st.Counter(fmt.Sprintf("obj:%07d", k)).Inc(1)
			}
		}(st, i)
	}
	wg.Wait()
	fmt.Printf("applied %d updates in %s; waiting for anti-entropy...\n",
		*keys, time.Since(start).Round(time.Millisecond))

	// Poll per-replica key counts and digests until the keyspace agrees.
	err = crdtsync.WaitConverged(stores, *keys, 5*time.Minute, func(counts []int) {
		fmt.Printf("  key counts: %v\n", counts)
	})
	if err != nil {
		log.Fatal(err)
	}

	var frames, wireBytes, elements, withheld, piggybacked, ackFrames, retransmits, enqueued, dropped, reconnects int
	for _, st := range stores {
		s := st.Stats()
		frames += s.Frames
		wireBytes += s.WireBytes
		elements += s.Sent.Elements
		withheld += s.Withheld
		piggybacked += s.PiggybackedDigests
		ackFrames += s.AckFrames
		retransmits += s.Retransmits
		for _, ps := range s.Peers {
			enqueued += ps.Enqueued
			dropped += ps.Dropped
			reconnects += ps.Reconnects
		}
	}
	fmt.Printf("\nconverged in %s: every replica holds all %d counters (digest %x)\n",
		time.Since(start).Round(time.Millisecond), *keys, stores[0].Digest())
	fmt.Printf("wire: %d batched frames, %.1f MiB total, %.0f keys/frame average, %d digests piggybacked on data frames\n",
		frames, float64(wireBytes)/(1<<20), float64(elements)/float64(frames), piggybacked)
	// One crossing per other replica is the floor; the acked engine is on
	// it once the replicas have told each other whom they reach, the delta
	// engine forwards what it receives on top.
	fmt.Printf("propagation: %.2f elements on the wire per update (%d replicas), %d forwards withheld on a neighbor's announcement\n",
		float64(elements)/float64(*keys), *nodes, withheld)
	// An acknowledgement rides a data frame that leaves one tick or more
	// after it became owed; the ones that found none in two ticks left
	// alone. An entry is sent again once the round trip its link has
	// measured, plus a tick, has gone by, so a burst that saturates the
	// box resends next to nothing (0.0000 per update in three runs of
	// -keys 30000 on 2 cores).
	fmt.Printf("pipeline: %d frames enqueued, %d dropped, %d reconnects; per update %.3f acknowledgement-only frames, %.4f retransmissions\n",
		enqueued, dropped, reconnects,
		float64(ackFrames)/float64(*keys), float64(retransmits)/float64(*keys))

	// The zero-clone read layer sums the whole keyspace without copying
	// a single counter state: Query visits each shard's live objects
	// under its lock.
	queryStart := time.Now()
	var total uint64
	for shard := 0; shard < stores[0].NumShards(); shard++ {
		stores[0].Query(shard, func(_ string, st crdtsync.State) bool {
			total += uint64(st.Elements())
			return true
		})
	}
	fmt.Printf("query: zero-clone full-keyspace visit in %s (sum of per-key contributions: %d)\n",
		time.Since(queryStart).Round(time.Microsecond), total)

	// Steady state: with every shard clean, ticks cost only the digest
	// heartbeat (8 bytes per shard per peer, every digest-every ticks).
	// Wait for the δ-buffers to drain first — right after convergence the
	// acked engines still hold entries whose acks are in flight or held,
	// and may send some again: residual delta traffic, not anti-entropy
	// cost.
	if *digestEvery > 0 {
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
			drained := 0
			for _, st := range stores {
				drained += st.Memory().BufferBytes
			}
			if drained == 0 {
				break
			}
			time.Sleep(*syncEvery)
		}
		agg := func() crdtsync.Stats {
			var t crdtsync.Stats
			for _, st := range stores {
				t.Add(st.Stats())
			}
			return t
		}
		// Let in-flight duplicates settle too: a retransmission wave
		// already queued in a socket buffer when the δ-buffers drain
		// still earns one large batched ack reply once the receiver
		// works through it. Wait until a full sync period passes with no
		// new data frames; processing one backlogged frame can itself
		// take a few ticks, so the window must span several before it
		// counts as quiet.
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
			prev := agg()
			time.Sleep(10 * *syncEvery)
			cur := agg()
			if cur.Frames-cur.DigestFrames == prev.Frames-prev.DigestFrames {
				break
			}
		}
		before := agg()
		idle := 10 * *syncEvery
		time.Sleep(idle)
		after := agg()
		fmt.Printf("steady state: %d B on the wire over %s idle (%d standalone digest heartbeats — piggybacking needs data frames to ride — %d data frames, %d shard repairs)\n",
			after.WireBytes-before.WireBytes, idle.Round(time.Millisecond),
			after.DigestFrames-before.DigestFrames,
			(after.Frames-after.DigestFrames)-(before.Frames-before.DigestFrames),
			after.RepairShards-before.RepairShards)
	}
}
