package transport

import (
	"fmt"
	"net"
	"time"
)

// LoopbackCluster starts n fully meshed stores on 127.0.0.1, binding every
// listener before any store starts so all peer addresses are known up
// front. The template supplies Shards, Engine, ObjType and SyncEvery; its
// ID is used as the replica-id prefix ("store" → store-00, store-01, …).
// Benchmarks, examples and tests share this bootstrap. On error, stores
// already started are closed.
func LoopbackCluster(n int, template StoreConfig) ([]*Store, error) {
	return loopbackCluster(n, template, nil)
}

// loopbackCluster is LoopbackCluster with a per-store hook: customize
// (when non-nil) runs on each store's finished config just before
// StartStore, with the listener already bound — the tests use it to wrap
// Dial per store.
func loopbackCluster(n int, template StoreConfig, customize func(i int, id string, cfg *StoreConfig)) ([]*Store, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: cluster needs at least 1 store")
	}
	prefix := template.ID
	if prefix == "" {
		prefix = "store"
	}
	ids := make([]string, n)
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%02d", prefix, i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				listeners[j].Close()
			}
			return nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	stores := make([]*Store, n)
	for i := range stores {
		peers := make(map[string]string)
		for j := range ids {
			if j != i {
				peers[ids[j]] = addrs[j]
			}
		}
		cfg := template
		cfg.ID = ids[i]
		cfg.Listener = listeners[i]
		cfg.ListenAddr = ""
		cfg.Peers = peers
		if customize != nil {
			customize(i, ids[i], &cfg)
		}
		st, err := StartStore(cfg)
		if err != nil {
			for j := 0; j < i; j++ {
				stores[j].Close()
			}
			for j := i; j < n; j++ {
				listeners[j].Close()
			}
			return nil, err
		}
		stores[i] = st
	}
	return stores, nil
}

// WaitConverged polls until every store holds wantKeys keys and all
// digests agree, or the timeout elapses. Key counts are checked first
// (cheap); full-keyspace digests only once the counts match. progress,
// when non-nil, receives the per-store key counts on every poll.
func WaitConverged(stores []*Store, wantKeys int, timeout time.Duration, progress func(counts []int)) error {
	deadline := time.Now().Add(timeout)
	for {
		counts := make([]int, len(stores))
		agree := true
		for i, st := range stores {
			counts[i] = st.NumKeys()
			if counts[i] != wantKeys {
				agree = false
			}
		}
		if progress != nil {
			progress(counts)
		}
		if agree {
			d0 := stores[0].Digest()
			for _, st := range stores[1:] {
				if st.Digest() != d0 {
					agree = false
					break
				}
			}
		}
		if agree {
			return nil
		}
		if time.Now().After(deadline) {
			// A sick write pipeline is the usual culprit, so the failure
			// names each store's queued/dropped frame totals alongside
			// its digest; a refused hello or a non-zero shard-count
			// mismatch counter means the cluster is misconfigured and
			// anti-entropy can never repair it.
			msg := "transport: cluster did not converge:"
			for _, st := range stores {
				queued, dropped := 0, 0
				stats := st.Stats()
				for _, ps := range stats.Peers {
					queued += ps.Queued
					dropped += ps.Dropped
				}
				msg += fmt.Sprintf(" %s[keys=%d digest=%x queued=%d dropped=%d]",
					st.ID(), st.NumKeys(), st.Digest(), queued, dropped)
				if stats.HelloRefused > 0 {
					msg += fmt.Sprintf(" %s refused %d connections whose hello named another shard count or wire version (misconfigured Shards?)",
						st.ID(), stats.HelloRefused)
				}
				if stats.DigestShardMismatch > 0 {
					msg += fmt.Sprintf(" %s saw %d digest advertisements with a foreign shard count (misconfigured Shards?)",
						st.ID(), stats.DigestShardMismatch)
				}
			}
			return fmt.Errorf("%s", msg)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
