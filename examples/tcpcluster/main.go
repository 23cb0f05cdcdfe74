// Tcpcluster runs five real replicas over TCP on loopback through the
// public crdtsync API, on a ring topology: each replica synchronizes
// with its two ring neighbors only, so every update needs multi-hop
// relaying before the whole cluster sees it. The replicas share one
// grow-only set, mutated and read through the typed Set handle.
//
// A replica is told its neighbors and nothing else: the engines need no
// cluster membership to relay across the ring.
//
// Run with: go run ./examples/tcpcluster
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"crdtsync"
)

func main() {
	const n = 5
	ids := make([]string, n)
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("node-%d", i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}

	// Ring topology: node-i talks to its two ring neighbors only.
	stores := make([]*crdtsync.Store, n)
	for i := 0; i < n; i++ {
		prev, next := (i+n-1)%n, (i+1)%n
		st, err := crdtsync.Open(
			crdtsync.WithID(ids[i]),
			crdtsync.WithListener(listeners[i]),
			crdtsync.WithPeers(map[string]string{ids[prev]: addrs[prev], ids[next]: addrs[next]}),
			crdtsync.WithEngine(crdtsync.EngineDelta), // BP+RR, the paper's engine
			crdtsync.WithSyncEvery(50*time.Millisecond),
		)
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		stores[i] = st
	}
	fmt.Printf("started %d replicas on a TCP ring (delta-based BP+RR, 50ms sync)\n", n)

	// Every replica contributes a few elements to the shared set.
	for i, st := range stores {
		events := st.Set("events")
		for j := 0; j < 3; j++ {
			events.Add(fmt.Sprintf("%s-item-%d", ids[i], j))
		}
	}
	fmt.Printf("applied %d updates across the cluster; waiting for anti-entropy...\n", n*3)

	// Poll until all replicas agree, reading through the zero-clone
	// handle (Len never copies the set).
	want := n * 3
	deadline := time.Now().Add(10 * time.Second)
	for {
		counts := make([]int, n)
		agree := 0
		for i, st := range stores {
			counts[i] = st.Set("events").Len()
			if counts[i] == want {
				agree++
			}
		}
		fmt.Printf("  element counts: %v\n", counts)
		if agree == n {
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("cluster did not converge")
		}
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Printf("\nconverged: every replica holds all %d elements\n", stores[0].Set("events").Len())
}
