package protocol

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"crdtsync/internal/metrics"
)

// Reach is what a node's neighbors have said about their own links: for
// each neighbor o, the set of this node's other neighbors that o has
// announced it currently sends to. The acked engine consults it — a
// δ-group that came from o is not forwarded to a neighbor o itself
// delivers to (deltaAcked.owed) — and whoever runs the engines keeps it up
// to date: a store from its neighbors' HelloMsgs, a test from the topology.
// A nil *Reach, or an origin that has announced nothing, is the empty set:
// Algorithm 1's BP and nothing more.
//
// One Reach is shared by every engine of a node. Readers load one pointer;
// a writer publishes a fresh table, so an announcement in the middle of a
// pass is seen by the entries tested after it and harms none.
type Reach struct {
	neighbors []string
	mu        sync.Mutex // serializes Set
	sets      atomic.Pointer[map[string]bitset]
	withheld  atomic.Uint64
}

// NewReach returns an empty table over a node's neighbors, in the order
// Config.Neighbors lists them.
func NewReach(neighbors []string) *Reach {
	return &Reach{neighbors: neighbors}
}

// Set replaces what origin reaches with those of ids that are neighbors of
// this node, origin itself excepted, and returns the neighbors that were
// in the set and no longer are. An origin that is no neighbor is ignored,
// as are ids this node does not know, and an id named twice counts once.
func (r *Reach) Set(origin string, ids []string) (left []string) {
	if !slices.Contains(r.neighbors, origin) {
		return nil
	}
	var set bitset
	for _, id := range ids {
		if i := slices.Index(r.neighbors, id); i >= 0 && id != origin {
			set.add(i)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.set(origin)
	next := make(map[string]bitset, len(r.neighbors))
	if cur := r.sets.Load(); cur != nil {
		maps.Copy(next, *cur)
	}
	next[origin] = set
	r.sets.Store(&next)
	for i, id := range r.neighbors {
		if old.has(i) && !set.has(i) {
			left = append(left, id)
		}
	}
	return left
}

// Of returns the neighbors origin last announced, in neighbor order.
func (r *Reach) Of(origin string) []string {
	set := r.set(origin)
	var ids []string
	for i, id := range r.neighbors {
		if set.has(i) {
			ids = append(ids, id)
		}
	}
	return ids
}

// set is what origin reaches, by neighbor position: empty for a nil table
// and for an origin that has announced nothing. The bitset is shared with
// the table and never written again.
func (r *Reach) set(origin string) bitset {
	if r != nil {
		if sets := r.sets.Load(); sets != nil {
			return (*sets)[origin]
		}
	}
	return bitset{}
}

// has reports whether origin has announced the neighbor at position i.
func (r *Reach) has(origin string, i int) bool {
	set := r.set(origin)
	return set.has(i)
}

// withhold counts the forwards an entry from origin is spared: one per
// neighbor origin reaches.
func (r *Reach) withhold(origin string) {
	set := r.set(origin)
	if n := set.len(); n > 0 {
		r.withheld.Add(uint64(n))
	}
}

// Withheld returns how many forwards the engines sharing r have not made
// because the entry's origin reaches the neighbor itself.
func (r *Reach) Withheld() uint64 { return r.withheld.Load() }

// WireVersion is what a HelloMsg says of the encoding its sender speaks.
// A store refuses a connection that announces another. Version 2 moved the
// sender's incarnation out of every numbered frame and into the hello;
// version 3 writes a keyed δ-group as its state alone, and a map field's
// without its key's second spelling; version 4 writes each key of a batch
// after the first as what it does not share with the key before it;
// version 5 writes all of a data frame's keyed items as one run in key
// order, with no shard index, which the receiver routes by key (ShardOf);
// version 6 spells each replica name once in a run and refers back to it
// after, and writes a one-entry counter and a one-element set with no
// count.
const WireVersion = 6

// HelloMsg is how a connection introduces itself: the first frame a store
// writes on every connection it establishes, written again whenever the
// set it names changes. Version and Shards are what both ends must agree
// on before any item is routed; Inc is the sender's incarnation, which
// every numbered frame on the connection is then of (FrameSeq.Inc);
// Reaches lists the neighbors the sender's write pipelines are currently
// connected to, which is what the receiver's Reach holds for it.
type HelloMsg struct {
	Version uint32
	Shards  uint32
	Inc     uint32
	Reaches []string
	cost    metrics.Transmission
}

// Kind implements Msg.
func (m *HelloMsg) Kind() string { return "hello" }

// Cost implements Msg.
func (m *HelloMsg) Cost() metrics.Transmission { return m.cost }

// NewHelloMsg builds a HelloMsg, all of it metadata: 4 bytes each for the
// version, the shard count and the incarnation, and the ids.
func NewHelloMsg(version, shards, inc uint32, reaches []string) *HelloMsg {
	cost := metrics.Transmission{Messages: 1, MetadataBytes: 12}
	for _, id := range reaches {
		cost.MetadataBytes += len(id)
	}
	return &HelloMsg{Version: version, Shards: shards, Inc: inc, Reaches: reaches, cost: cost}
}
