package exp

import (
	"fmt"
	"time"

	"crdtsync/internal/protocol"
	"crdtsync/internal/topology"
	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// StoreRun is the store that crdtsync.Open runs, a replica per node of
// Graph, on the transport package's deterministic scheduler: Keys counters
// written round-robin across the replicas, one every SyncEvery/64 of
// simulated time, then settled under the sim's oracle.
type StoreRun struct {
	Graph       *topology.Graph
	Engine      string // "acked" (the store's default) or "delta"
	Shards      int
	SyncEvery   time.Duration
	DigestEvery int
	Keys        int
	Seed        int64
}

// storeEngines maps the names crdtsync.ParseEngine takes to the engines
// they select there; crdtsync keeps its factories unexported.
var storeEngines = map[string]protocol.Factory{
	"acked": protocol.NewDeltaAcked(true, true),
	"delta": protocol.NewDeltaBPRR(),
}

// RunStore runs r and reports its figures, in simulated time: "settled
// within" is how long after the last write every replica held the
// sequential join, to the sync period the oracle is checked at. An error
// is an unknown engine, a frame a replica refused or a run that did not
// settle.
func RunStore(r StoreRun) (*Table, error) {
	factory, ok := storeEngines[r.Engine]
	if !ok {
		return nil, fmt.Errorf("exp: unknown store engine %q (want acked or delta)", r.Engine)
	}
	counters := func(string) workload.Datatype { return workload.GCounterType{} }
	sim, err := transport.NewSim(r.Graph, transport.StoreConfig{
		Shards:      r.Shards,
		Factory:     factory,
		ObjType:     counters,
		SyncEvery:   r.SyncEvery,
		DigestEvery: r.DigestEvery,
	}, r.Seed)
	if err != nil {
		return nil, err
	}
	g := r.Graph
	for k := 0; k < r.Keys; k++ {
		if err := sim.Run(sim.Now() + int64(r.SyncEvery/64)); err != nil {
			return nil, err
		}
		sim.Update(k%g.NumNodes(), workload.Inc(fmt.Sprintf("c/key:%07d", k), 1))
	}
	lastWrite := sim.Now()
	if err := sim.Settle(); err != nil {
		return nil, err
	}
	var st transport.StoreStats
	for i := 0; i < g.NumNodes(); i++ {
		st.Add(sim.Stats(i))
	}
	return &Table{
		ID: "store",
		Title: fmt.Sprintf("%d replicas, %d edges (cycles=%t), %d shards each, %s engine, sync every %s, digests every %d ticks, seed %d",
			g.NumNodes(), g.NumEdges(), !g.IsAcyclic(), sim.NumShards(), r.Engine, r.SyncEvery, r.DigestEvery, r.Seed),
		Header: []string{"figure", "simulated"},
		Rows: [][]string{
			{"last write", time.Duration(lastWrite).String()},
			{"settled within", time.Duration(sim.Now() - lastWrite).String()},
			{"digest", fmt.Sprintf("%x", sim.Digest(0))},
			{"frames", itoa(st.Frames)},
			{"wire bytes", itoa(st.WireBytes)},
			{"elements", itoa(st.Sent.Elements)},
			{"elements per update", ratio(float64(st.Sent.Elements), float64(r.Keys))},
		},
	}, nil
}
