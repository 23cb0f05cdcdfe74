package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"crdtsync"
	"crdtsync/internal/transport"
)

// cluster is three fully meshed replicas on loopback, opened one by one
// through crdtsync.Open so that each can get its own dialer, listener and
// snapshot directory.
type cluster struct {
	spec   spec
	ids    []string
	addrs  []string
	stores []*crdtsync.Store
	tap    *tap             // nil unless traced
	fault  *transport.Fault // nil unless the workload injects loss
	// snapDir is the watch replica's snapshot directory ("" = none).
	snapDir string

	// Traced clusters are opened with an hour-long sync period and ticked
	// from here instead, so that each tick's start and end are observed.
	tickStop chan struct{}
	tickWG   sync.WaitGroup
	tickMu   sync.Mutex
	ticks    []tickRec // ticks of writeReplica only
}

// tickRec is one SyncNow call on the write replica.
type tickRec struct{ start, end time.Time }

// openCluster binds every listener first, so all addresses are known, then
// opens the replicas. With traced set the connections are tapped and the
// harness drives the sync ticks.
func openCluster(s spec, seed int64, traced bool, snapDir string) (*cluster, error) {
	c := &cluster{spec: s, snapDir: snapDir}
	lns := make([]net.Listener, numReplicas)
	for i := 0; i < numReplicas; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		c.ids = append(c.ids, fmt.Sprintf("r%d", i))
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	if traced {
		c.tap = newTap(c.ids)
	}
	if s.dropRate > 0 {
		// Loss is switched on for the timed window only.
		c.fault = transport.NewFault(streamSeed(seed, streamFault))
	}
	c.stores = make([]*crdtsync.Store, numReplicas)
	for i := range c.stores {
		st, err := c.open(i, lns[i])
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.close()
			return nil, err
		}
		c.stores[i] = st
	}
	if traced {
		c.tickStop = make(chan struct{})
		for i := range c.stores {
			c.tickWG.Add(1)
			go c.tickLoop(i)
		}
	}
	return c, nil
}

// open starts replica i on ln.
func (c *cluster) open(i int, ln net.Listener) (*crdtsync.Store, error) {
	s := c.spec
	peers := make(map[string]string)
	for j, id := range c.ids {
		if j != i {
			peers[id] = c.addrs[j]
		}
	}
	syncEvery := s.syncEvery
	var dial crdtsync.DialFunc
	if c.tap != nil {
		syncEvery = time.Hour
		ln = c.tap.listener(c.ids[i], ln)
		dial = c.tap.dial(c.ids[i])
	}
	if c.fault != nil {
		// The injector sits outside the tap, so the tap sees what
		// actually reaches the socket.
		dial = c.fault.Dialer(dial)
	}
	opts := []crdtsync.Option{
		crdtsync.WithID(c.ids[i]),
		crdtsync.WithListener(ln),
		crdtsync.WithPeers(peers),
		crdtsync.WithNodes(c.ids),
		crdtsync.WithShards(numShards),
		crdtsync.WithEngine(s.engine),
		crdtsync.WithSyncEvery(syncEvery),
		crdtsync.WithDigestEvery(s.digestEvery),
	}
	if dial != nil {
		opts = append(opts, crdtsync.WithDial(dial))
	}
	if c.snapDir != "" && i == watchReplica {
		// Only the explicit SnapshotNow writes: the snapshot's staleness
		// at restart is then set by the workload, not by a timer's phase.
		opts = append(opts, crdtsync.WithSnapshotDir(c.snapDir), crdtsync.WithSnapshotEvery(time.Hour))
	}
	return crdtsync.Open(opts...)
}

// reopen restarts replica i on its old address.
func (c *cluster) reopen(i int) error {
	ln, err := net.Listen("tcp", c.addrs[i])
	if err != nil {
		return err
	}
	st, err := c.open(i, ln)
	if err != nil {
		ln.Close()
		return err
	}
	c.setStore(i, st)
	return nil
}

func (c *cluster) tickLoop(i int) {
	defer c.tickWG.Done()
	t := time.NewTicker(c.spec.syncEvery)
	defer t.Stop()
	for {
		select {
		case <-c.tickStop:
			return
		case <-t.C:
		}
		// The store is re-read each tick: a restart replaces it.
		c.tickMu.Lock()
		st := c.stores[i]
		c.tickMu.Unlock()
		if st == nil {
			continue
		}
		start := time.Now()
		st.SyncNow()
		if i == writeReplica {
			end := time.Now()
			c.tickMu.Lock()
			c.ticks = append(c.ticks, tickRec{start, end})
			c.tickMu.Unlock()
		}
	}
}

// setStore swaps replica i's store under the tick loops' lock.
func (c *cluster) setStore(i int, st *crdtsync.Store) {
	c.tickMu.Lock()
	c.stores[i] = st
	c.tickMu.Unlock()
}

func (c *cluster) close() {
	if c.tickStop != nil {
		close(c.tickStop)
		c.tickWG.Wait()
		c.tickStop = nil
	}
	for _, st := range c.stores {
		if st != nil {
			st.Close()
		}
	}
}

// stats sums the replicas' counters.
func (c *cluster) stats() crdtsync.Stats {
	var total crdtsync.Stats
	for _, st := range c.stores {
		if st != nil {
			total.Add(st.Stats())
		}
	}
	return total
}

func digestsEqual(stores []*crdtsync.Store) bool {
	d := stores[0].Digest()
	for _, st := range stores[1:] {
		if st.Digest() != d {
			return false
		}
	}
	return true
}
