package transport

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"

	"crdtsync/internal/codec"
	"crdtsync/internal/lattice"
	"crdtsync/internal/topology"
	"crdtsync/internal/workload"
)

// A deterministic network for the store's cores. One caller owns every
// core and a simulated clock. The cores send through ports that put their
// frames on directed links, one each way along every edge of a graph, and
// the scheduler takes the earliest event — a frame's arrival, handed to
// deliver, or the deadline a core's last step returned — until the time it
// is asked to run to. What befalls each frame on its link (lost,
// duplicated, late, overtaken, severed), the links' latencies and the
// cores' clock phases are all drawn from the run's seed, so a run replays
// from its seed alone. A run ends with the oracle (Settle): each replica
// equals the sequential join of the ops, digests agree, every link has
// drained and every δ-buffer is empty.
//
// Like the core, the scheduler reads no clock, arms no timer, starts no
// goroutine, imports no net and declares no lock.

// simSettlePeriods bounds how long Settle waits for the oracle to hold.
const simSettlePeriods = 500

// lastWord prefixes the key each replica writes when Settle needs a last
// numbered frame on its links; the key must be a counter's.
const lastWord = "c/last-word-"

// simLink is one directed link: how long a frame takes, and what may
// befall it on the way.
type simLink struct {
	latency int64   // every frame spends this long on the wire
	jitter  int64   // and up to this much more, uniformly: frames overtake each other
	park    float64 // the chance a frame is held back half a period, overtaken by those behind it
	drop    float64 // the chance a frame is lost
	dup     float64 // the chance a frame that is not lost arrives twice
	severed bool    // every frame is lost
	// lose, when set, loses the n-th frame handed to the link; a hello is
	// the first.
	lose func(n int) bool
	sent int
	// view is what the receiving core unpacks the link's frames into.
	view codec.FrameView
}

// simFrame is a frame on the wire; seq keeps the order of frames due at
// the same time.
type simFrame struct {
	at, seq  int64
	from, to int
	data     []byte
}

// simWire is the frames on the wire, earliest first.
type simWire []*simFrame

func (w simWire) Len() int { return len(w) }
func (w simWire) Less(i, j int) bool {
	return w[i].at < w[j].at || w[i].at == w[j].at && w[i].seq < w[j].seq
}
func (w simWire) Swap(i, j int) { w[i], w[j] = w[j], w[i] }
func (w *simWire) Push(x any)   { *w = append(*w, x.(*simFrame)) }
func (w *simWire) Pop() any {
	f := (*w)[len(*w)-1]
	*w = (*w)[:len(*w)-1]
	return f
}

// simNode is one replica: its core, and a Store shell around the core with
// no network, clock or loop, for the read methods the oracle uses.
type simNode struct {
	*core
	st  *Store
	off int64 // the core's clock reads the scheduler's plus off
	due int64 // when, on the scheduler's clock, the core's next step runs
}

func (n *simNode) stats() StoreStats { return n.counters(make(map[string]PeerStats)) }

// spurious counts the replica's resends that an acknowledgement of the
// entry's first send showed were not needed (Eifel): the retransmission
// timer's error, which the scenarios read and no stat reports.
func (n *simNode) spurious() int {
	count := 0
	for _, sh := range n.shards {
		count += int(sh.ks.SpuriousRetransmits())
	}
	return count
}

// simPort is a core's port: every neighbor is connected, and the frames go
// on the links.
type simPort struct {
	s    *Sim
	from int
}

func (p simPort) transmit(to string, data []byte) error {
	p.s.send(p.from, p.s.index[to], data)
	return nil
}

func (simPort) connect(string) bool { return true }
func (p simPort) announce()         { p.s.announce(p.from) }

// Sim runs one replica per node of a graph on the scheduler.
type Sim struct {
	period  int64 // the replicas' SyncEvery
	seed    int64
	rng     *rand.Rand
	now     int64
	nodes   []*simNode
	index   map[string]int
	links   [][]*simLink // [from][to], nil where the graph has no edge
	wire    simWire
	seq     int64
	objType func(key string) workload.Datatype
	// err is the first failure of a run: once set, Run runs nothing.
	err error
	// trace hashes (now, from, to, bytes) of every frame handed to a link.
	trace hash.Hash64
	// onSend, when not nil, is shown every frame handed to a link.
	onSend func(data []byte)
	// ref is the sequential join of every op issued.
	ref map[string]lattice.State
	// ops counts the ops issued.
	ops int
}

// NewSim starts one replica of tmpl per node of g, named by its node and
// peered with its neighbors, each core built as StartStore builds it, and
// puts a hello on every link. The latencies, incarnations and clock phases
// are drawn from seed, node by node in the graph's order. tmpl's SyncEvery
// is the period the latencies are drawn against, and its ObjType types the
// engines and the oracle's join alike, and must type Settle's last words
// (lastWord) as counters; its ID and Peers are the graph's.
func NewSim(g *topology.Graph, tmpl StoreConfig, seed int64) (*Sim, error) {
	ids := g.Nodes()
	if len(ids) == 0 {
		return nil, errors.New("transport: the sim needs a node")
	}
	tmpl = tmpl.withDefaults()
	s := &Sim{
		period:  int64(tmpl.SyncEvery),
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
		index:   make(map[string]int, len(ids)),
		links:   make([][]*simLink, len(ids)),
		objType: tmpl.ObjType,
		trace:   fnv.New64a(),
		ref:     make(map[string]lattice.State),
	}
	for i, id := range ids {
		s.index[id] = i
	}
	for i, id := range ids {
		cfg := tmpl
		cfg.ID = id
		cfg.Peers = make(map[string]string, g.Degree(id))
		s.links[i] = make([]*simLink, len(ids))
		for _, peer := range g.Neighbors(id) {
			cfg.Peers[peer] = ""
			s.links[i][s.index[peer]] = &simLink{latency: s.period/100 + s.rng.Int63n(s.period/25)}
		}
		c, err := newCore(cfg, newIncarnation(s.rng.Int63()))
		if err != nil {
			return nil, err
		}
		c.out = simPort{s, i}
		c.hold = s.period / ackHoldsPerTick
		off := s.rng.Int63n(s.period)
		s.nodes = append(s.nodes, &simNode{core: c, st: &Store{core: c}, off: off, due: s.period - off})
	}
	for i := range s.nodes {
		s.announce(i)
	}
	return s, nil
}

// Now is the scheduler's clock: nanoseconds since the sim started.
func (s *Sim) Now() int64 { return s.now }

// Stats returns replica i's counters; its Peers hold each link's
// acknowledgement marks, and no queue: a link is always connected.
func (s *Sim) Stats(i int) StoreStats { return s.nodes[i].stats() }

// NumShards returns the replicas' shard count.
func (s *Sim) NumShards() int { return len(s.nodes[0].shards) }

// Digest returns replica i's digest.
func (s *Sim) Digest(i int) uint64 { return s.nodes[i].st.Digest() }

// errorf is a failure of the run, naming the seed that replays it and how
// far into it the failure came.
func (s *Sim) errorf(format string, args ...any) error {
	return fmt.Errorf("seed %d, %.2f periods in: %s", s.seed, float64(s.now)/float64(s.period), fmt.Sprintf(format, args...))
}

// eachLink applies set to every link.
func (s *Sim) eachLink(set func(l *simLink)) {
	for _, row := range s.links {
		for _, l := range row {
			if l != nil {
				set(l)
			}
		}
	}
}

// announce puts a hello on each of replica i's links, naming every
// neighbor: all of them are connected.
func (s *Sim) announce(i int) {
	n := s.nodes[i]
	for _, to := range n.neighbors {
		s.send(i, s.index[to], n.hello(n.neighbors))
	}
}

// send hands a frame to the link from → to, which decides its fate.
func (s *Sim) send(from, to int, data []byte) {
	var hdr [32]byte
	binary.BigEndian.PutUint64(hdr[0:], uint64(s.now))
	binary.BigEndian.PutUint64(hdr[8:], uint64(from))
	binary.BigEndian.PutUint64(hdr[16:], uint64(to))
	binary.BigEndian.PutUint64(hdr[24:], uint64(len(data)))
	s.trace.Write(hdr[:])
	s.trace.Write(data)
	if s.onSend != nil {
		s.onSend(data)
	}
	l := s.links[from][to]
	l.sent++
	if l.severed || l.lose != nil && l.lose(l.sent) || l.drop > 0 && s.rng.Float64() < l.drop {
		return
	}
	copies := 1
	if l.dup > 0 && s.rng.Float64() < l.dup {
		copies = 2
	}
	for ; copies > 0; copies-- {
		at := s.now + l.latency
		if l.jitter > 0 {
			at += s.rng.Int63n(l.jitter)
		}
		if l.park > 0 && s.rng.Float64() < l.park {
			at += s.period / 2
		}
		s.seq++
		heap.Push(&s.wire, &simFrame{at: at, seq: s.seq, from: from, to: to, data: data})
	}
}

// Run takes the events due up to until in time order — at one instant,
// arrivals before steps, and a lower replica's step first — and leaves the
// clock at until. It returns the run's first failure, a frame a replica
// refused, and after one runs nothing.
func (s *Sim) Run(until int64) error {
	for s.err == nil {
		n := s.nodes[0]
		for _, m := range s.nodes[1:] {
			if m.due < n.due {
				n = m
			}
		}
		if len(s.wire) > 0 && s.wire[0].at <= n.due {
			if s.wire[0].at > until {
				break
			}
			f := heap.Pop(&s.wire).(*simFrame)
			s.now = f.at
			s.arrive(f)
			continue
		}
		if n.due > until {
			break
		}
		s.now = n.due
		s.step(n)
	}
	if s.err == nil {
		s.now = until
	}
	return s.err
}

// arrive delivers a frame, and has the receiver step at once if that gave
// it a deadline, as a delivery wakes a store's sync loop. A link is one
// connection that is always up, so the sender's incarnation, which its
// hello names on a real one, is handed over out of band: a frame may
// overtake the hello, or the hello be lost.
func (s *Sim) arrive(f *simFrame) {
	n := s.nodes[f.to]
	inc := s.nodes[f.from].inc
	wake, err := n.deliver(s.nodes[f.from].cfg.ID, &inc, &s.links[f.from][f.to].view, f.data, s.now+n.off)
	if err != nil {
		s.err = s.errorf("%s refused a frame from %s: %v", n.cfg.ID, s.nodes[f.from].cfg.ID, err)
	}
	if wake {
		n.due = s.now
	}
}

// step runs a replica's step as its sync loop does, and the next step is
// due at the deadline returned. The loop adds a pass's duration to the
// flush budget's sendAt; a pass takes no simulated time, so that adds 0.
func (s *Sim) step(n *simNode) {
	next, _ := n.core.step(s.now + n.off)
	n.due = next - n.off
}

// Update applies op at replica i, and to the sequential join.
func (s *Sim) Update(i int, op workload.Op) {
	n := s.nodes[i]
	dt := s.objType(op.Key)
	ref := s.ref[op.Key]
	if ref == nil {
		ref = dt.New()
		s.ref[op.Key] = ref
	}
	ref.Merge(dt.Delta(ref, n.cfg.ID, op))
	s.ops++
	if n.update(op) {
		n.due = s.now
	}
}

// diverged names what keeps the replicas from the oracle's end state, or
// returns "": each replica holds the sequential join, digests agree, no
// link waits for a frame and every δ-buffer is empty.
func (s *Sim) diverged() string {
	keys := make([]string, 0, len(s.ref))
	for k := range s.ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	digest := s.nodes[0].st.Digest()
	for _, n := range s.nodes {
		id := n.cfg.ID
		if got := n.st.NumKeys(); got != len(keys) {
			return fmt.Sprintf("%s holds %d keys, want %d", id, got, len(keys))
		}
		for _, k := range keys {
			equal := false
			n.st.View(k, func(st lattice.State) { equal = st.Equal(s.ref[k]) })
			if !equal {
				return fmt.Sprintf("%s's %s is not the sequential join %v", id, k, s.ref[k])
			}
		}
		if d := n.st.Digest(); d != digest {
			return fmt.Sprintf("%s's digest %x, %s's %x", id, d, s.nodes[0].cfg.ID, digest)
		}
		if b := n.st.Memory().BufferBytes; b != 0 {
			return fmt.Sprintf("%s's δ-buffers hold %d bytes", id, b)
		}
		for peer, ps := range n.stats().Peers {
			if ps.InFlight != 0 {
				return fmt.Sprintf("%s waits for %d frames to %s", id, ps.InFlight, peer)
			}
		}
	}
	return ""
}

// lagging names a link whose last numbered frame is not acknowledged, or
// returns "".
func (s *Sim) lagging() string {
	for _, n := range s.nodes {
		for peer, ps := range n.stats().Peers {
			if ps.LastAcked != ps.LastSent {
				return fmt.Sprintf("%s→%s acknowledged to %d of %d", n.cfg.ID, peer, ps.LastAcked, ps.LastSent)
			}
		}
	}
	return ""
}

// Settle ends a run. It mends every link — nothing is lost from here on;
// latency, jitter and duplication stay — and runs until the oracle holds,
// a period at a time, failing if it does not within simSettlePeriods. The
// neighbor's mark passes a lost frame's number only once a later frame
// says it is not waited for any more, so when everything else holds and a
// mark still lags, every replica writes a last word to a counter of its
// own: a last numbered frame on each of its links.
func (s *Sim) Settle() error {
	s.eachLink(func(l *simLink) { l.severed, l.drop, l.lose = false, 0, nil })
	lastWords := false
	for deadline := s.now + simSettlePeriods*s.period; ; {
		if err := s.Run(s.now + s.period); err != nil {
			return err
		}
		why := s.diverged()
		if why == "" {
			if why = s.lagging(); why == "" {
				return nil
			}
			if !lastWords {
				lastWords = true
				for i, n := range s.nodes {
					s.Update(i, workload.Inc(lastWord+n.cfg.ID, 1))
				}
			}
		}
		if s.now >= deadline {
			return s.errorf("not settled after %d periods: %s", simSettlePeriods, why)
		}
	}
}
