package protocol

import (
	"slices"

	"crdtsync/internal/core"
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
// One Reach is shared by every engine of a node, and has one owner at a
// time, as the engines do: a store's core calls them all under its one
// lock, and the simulator runs every node on one goroutine.
type Reach struct {
	neighbors []string
	words     map[string]*word
	withheld  uint64
}

// word is what one origin has announced, by neighbor position: the
// neighbors it reaches, and those of them a forward of an entry from it
// has been withheld from on that word since they last joined the set.
type word struct{ reaches, spared core.Positions }

// NewReach returns an empty table over a node's neighbors, in the order
// Config.Neighbors lists them.
func NewReach(neighbors []string) *Reach {
	return &Reach{neighbors: neighbors, words: make(map[string]*word, len(neighbors))}
}

// Set replaces what origin reaches with those of ids that are neighbors of
// this node, origin itself excepted, and returns the neighbors that leave
// the set having had a forward withheld from them on origin's word
// (withholds): origin may not have delivered it, and whoever runs the
// engines must see that they catch up. An origin that is no neighbor is
// ignored, as are ids this node does not know, and an id named twice
// counts once.
func (r *Reach) Set(origin string, ids []string) (left []string) {
	if !slices.Contains(r.neighbors, origin) {
		return nil
	}
	w := r.words[origin]
	if w == nil {
		w = new(word)
		r.words[origin] = w
	}
	w.reaches = core.Positions{}
	for _, id := range ids {
		if i := slices.Index(r.neighbors, id); i >= 0 && id != origin {
			w.reaches.Add(i)
		}
	}
	spared := w.spared
	w.spared = core.Positions{}
	for i, id := range r.neighbors {
		if !spared.Has(i) {
			continue
		}
		if w.reaches.Has(i) {
			w.spared.Add(i)
		} else {
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
		if set.Has(i) {
			ids = append(ids, id)
		}
	}
	return ids
}

// Covers reports whether origin has announced every neighbor of this node
// but itself. Then each of them holds what origin sent here or is sent it
// by origin, and a δ-group from origin forwarded to any of them is
// redundant there: a store lets such forwards wait for its next pass
// instead of asking for one.
func (r *Reach) Covers(origin string) bool {
	others := len(r.neighbors)
	if slices.Contains(r.neighbors, origin) {
		others--
	}
	return r.set(origin).Len() == others
}

// set is what origin reaches, by neighbor position: empty for a nil table
// and for an origin that has announced nothing.
func (r *Reach) set(origin string) core.Positions {
	if r != nil {
		if w := r.words[origin]; w != nil {
			return w.reaches
		}
	}
	return core.Positions{}
}

// withholds reports whether origin has announced the neighbor at position
// i, so that an entry from origin need not be sent there, and records that
// a forward is withheld from it on origin's word (Set).
func (r *Reach) withholds(origin string, i int) bool {
	if r == nil {
		return false
	}
	w := r.words[origin]
	if w == nil || !w.reaches.Has(i) {
		return false
	}
	w.spared.Add(i)
	return true
}

// withhold counts the forwards an entry from origin is spared: one per
// neighbor origin reaches.
func (r *Reach) withhold(origin string) {
	if n := r.set(origin).Len(); n > 0 {
		r.withheld += uint64(n)
	}
}

// Withheld returns how many forwards the engines sharing r have not made
// because the entry's origin reaches the neighbor itself.
func (r *Reach) Withheld() uint64 { return r.withheld }

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
