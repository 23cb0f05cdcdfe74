package transport

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// A deterministic network for the store's cores. One goroutine owns every
// core and a simulated clock. The cores send through ports that put their
// frames on directed links, and the scheduler takes the earliest event —
// a frame's arrival, handed to deliver, or the deadline a core's last step
// returned — until the time it is asked to run to. What befalls each frame
// on its link (lost, duplicated, late, overtaken, severed), the links'
// latencies and the cores' clock phases are all drawn from the run's seed,
// so a run replays from its seed alone. Every run ends with the oracle
// (settle): each replica equals the sequential join of the ops, digests
// agree, every link has drained and every δ-buffer is empty.
//
// The scenarios are the fault battery's that need more than a socket that
// loses frames, which is all transport.Fault does.

// simPeriod is every scenario's SyncEvery; only ratios to it matter.
const simPeriod = int64(10 * time.Millisecond)

// simSettlePeriods bounds how long settle waits for the oracle to hold.
const simSettlePeriods = 500

// simSeeds is the seed table every scenario runs: 1 to simSeeds().
func simSeeds() int64 {
	if testing.Short() {
		return 20
	}
	return 200
}

// forSeeds runs a scenario once per seed of the table.
func forSeeds(scenario func(seed int64)) {
	for seed := int64(1); seed <= simSeeds(); seed++ {
		scenario(seed)
	}
}

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

// simPort is a core's port: every neighbor is connected, and the frames go
// on the links.
type simPort struct {
	s    *sim
	from int
}

func (p simPort) transmit(to string, data []byte) error {
	p.s.send(p.from, p.s.index[to], data)
	return nil
}

func (simPort) connect(string) bool { return true }
func (p simPort) announce()         { p.s.announce(p.from) }

// simObjType is the store's prefix schema, every scenario's: c/ counters,
// s/ sets, and map fields under every other key, m/<map>/<field> — each
// with its own one-entry map, and its own δ-group item form on the wire.
func simObjType(key string) workload.Datatype {
	switch {
	case strings.HasPrefix(key, "c/"):
		return workload.GCounterType{}
	case strings.HasPrefix(key, "s/"):
		return workload.GSetType{}
	default:
		return workload.LWWMapType{}
	}
}

type sim struct {
	t     testing.TB
	seed  int64
	rng   *rand.Rand
	now   int64
	nodes []*simNode
	index map[string]int
	links [][]*simLink // [from][to], nil on the diagonal
	wire  simWire
	seq   int64
	// trace hashes (now, from, to, bytes) of every frame handed to a link.
	trace hash.Hash64
	// onSend, when not nil, is shown every frame handed to a link.
	onSend func(data []byte)
	// ref is the sequential join of every op issued.
	ref map[string]lattice.State
	// ops counts the ops issued, which names each set element and field
	// value: every write changes what it writes to.
	ops int
}

// newSim starts n fully meshed replicas of cfg, named s-00, s-01, …, each
// core built as StartStore builds it, and puts a hello on every link.
func newSim(t testing.TB, seed int64, n int, cfg StoreConfig) *sim {
	t.Helper()
	s := &sim{
		t:     t,
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		index: make(map[string]int, n),
		links: make([][]*simLink, n),
		trace: fnv.New64a(),
		ref:   make(map[string]lattice.State),
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("s-%02d", i)
		s.index[ids[i]] = i
	}
	cfg.ObjType = simObjType
	cfg.SyncEvery = time.Duration(simPeriod)
	for i, id := range ids {
		cfg.ID = id
		cfg.Peers = make(map[string]string, n-1)
		s.links[i] = make([]*simLink, n)
		for j, peer := range ids {
			if j != i {
				cfg.Peers[peer] = ""
				s.links[i][j] = &simLink{latency: simPeriod/100 + s.rng.Int63n(simPeriod/25)}
			}
		}
		c, err := newCore(cfg.withDefaults(), newIncarnation(s.rng.Int63()))
		if err != nil {
			t.Fatal(err)
		}
		c.out = simPort{s, i}
		c.hold = simPeriod / ackHoldsPerTick
		off := s.rng.Int63n(simPeriod)
		s.nodes = append(s.nodes, &simNode{core: c, st: &Store{core: c}, off: off, due: simPeriod - off})
	}
	for i := range s.nodes {
		s.announce(i)
	}
	return s
}

// fatalf fails the test, naming the seed that replays the run and how far
// into it the failure came.
func (s *sim) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("seed %d, %.2f periods in: %s", s.seed, float64(s.now)/float64(simPeriod), fmt.Sprintf(format, args...))
}

// eachLink applies set to every link.
func (s *sim) eachLink(set func(l *simLink)) {
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
func (s *sim) announce(i int) {
	n := s.nodes[i]
	for _, to := range n.neighbors {
		s.send(i, s.index[to], n.hello(n.neighbors))
	}
}

// send hands a frame to the link from → to, which decides its fate.
func (s *sim) send(from, to int, data []byte) {
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
			at += simPeriod / 2
		}
		s.seq++
		heap.Push(&s.wire, &simFrame{at: at, seq: s.seq, from: from, to: to, data: data})
	}
}

// run takes the events due up to until in time order — at one instant,
// arrivals before steps, and a lower replica's step first — and leaves the
// clock at until.
func (s *sim) run(until int64) {
	for {
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
	s.now = until
}

// runTo runs until n's clock reads local.
func (s *sim) runTo(n *simNode, local int64) { s.run(local - n.off) }

// arrive delivers a frame, and has the receiver step at once if that gave
// it a deadline, as a delivery wakes a store's sync loop. A link is one
// connection that is always up, so the sender's incarnation, which its
// hello names on a real one, is handed over out of band: a frame may
// overtake the hello, or the hello be lost.
func (s *sim) arrive(f *simFrame) {
	n := s.nodes[f.to]
	inc := s.nodes[f.from].inc
	wake, err := n.deliver(s.nodes[f.from].cfg.ID, &inc, &s.links[f.from][f.to].view, f.data, s.now+n.off)
	if err != nil {
		s.fatalf("%s refused a frame from %s: %v", n.cfg.ID, s.nodes[f.from].cfg.ID, err)
	}
	if wake {
		n.due = s.now
	}
}

// step runs a replica's step as its sync loop does: a pass's end is
// stamped, and the next step is due at the deadline returned.
func (s *sim) step(n *simNode) {
	now := s.now + n.off
	next, pass := n.core.step(now)
	if pass {
		n.lastSend = now
	}
	n.due = next - n.off
}

// update applies op at replica i, and to the sequential join.
func (s *sim) update(i int, op workload.Op) {
	n := s.nodes[i]
	dt := simObjType(op.Key)
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

// write writes keys 0 to keys-1 under prefix, the k-th from replica k mod
// n, with up to gap of the clock, drawn from the seed, after each. Each
// replica's keys take the three datatypes in turn: counter c/prefix-k,
// incremented by by; set s/prefix-k, given a new element; map field
// m/prefix-k/f, given a new value. A field has one writer, as it must for
// its last writer to be the sequential join's: its LWW version is what the
// writer has seen, plus one.
func (s *sim) write(prefix string, keys int, by uint64, gap int64) {
	for k := 0; k < keys; k++ {
		name := fmt.Sprintf("%s-%03d", prefix, k)
		var op workload.Op
		switch k / len(s.nodes) % 3 {
		case 0:
			op = workload.Inc("c/"+name, by)
		case 1:
			op = workload.Add("s/"+name, fmt.Sprintf("e%d", s.ops))
		default:
			op = workload.Put("m/"+name+"/f", fmt.Sprintf("v%d", s.ops))
		}
		s.update(k%len(s.nodes), op)
		s.run(s.now + s.rng.Int63n(gap))
	}
}

// diverged names what keeps the replicas from the oracle's end state, or
// returns "": each replica holds the sequential join, digests agree, no
// link waits for a frame and every δ-buffer is empty.
func (s *sim) diverged() string {
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
func (s *sim) lagging() string {
	for _, n := range s.nodes {
		for peer, ps := range n.stats().Peers {
			if ps.LastAcked != ps.LastSent {
				return fmt.Sprintf("%s→%s acknowledged to %d of %d", n.cfg.ID, peer, ps.LastAcked, ps.LastSent)
			}
		}
	}
	return ""
}

// settle ends a run. It mends every link — nothing is lost from here on;
// latency, jitter and duplication stay — and runs until the oracle holds,
// failing the test if it does not within simSettlePeriods. The neighbor's
// mark passes a lost frame's number only once a later frame says it is not
// waited for any more, so when everything else holds and a mark still lags,
// every replica writes a last word to a key of its own: a last numbered
// frame on each of its links.
func (s *sim) settle() {
	s.t.Helper()
	s.eachLink(func(l *simLink) { l.severed, l.drop, l.lose = false, 0, nil })
	lastWords := false
	for deadline := s.now + simSettlePeriods*simPeriod; ; {
		s.run(s.now + simPeriod)
		why := s.diverged()
		if why == "" {
			if why = s.lagging(); why == "" {
				return
			}
			if !lastWords {
				lastWords = true
				for i, n := range s.nodes {
					s.update(i, workload.Inc("c/last-word-"+n.cfg.ID, 1))
				}
			}
		}
		if s.now >= deadline {
			s.fatalf("not settled after %d periods: %s", simSettlePeriods, why)
		}
	}
}

// simConfig is the scenarios' replica: eight shards of engine, digests
// every DigestEvery ticks (0: none).
func simConfig(engine protocol.Factory, digestEvery int) StoreConfig {
	return StoreConfig{Shards: 8, Factory: engine, DigestEvery: digestEvery}
}

// TestSimReorderOrDuplicateIsLossless: links that let frames overtake each
// other — by a uniform spread of latencies, or by holding back half the
// frames while those behind them go first — or deliver some twice, lose
// nothing. The plain delta engine with
// digests off has no repair path at all, so the oracle — every counter its
// written value, every set and map field the sequential join, on every
// replica — holds only if neither fault ever loses or double-counts a
// frame.
func TestSimReorderOrDuplicateIsLossless(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(l *simLink)
	}{
		{"reorder", func(l *simLink) { l.jitter = simPeriod / 2 }},
		{"hold-back", func(l *simLink) { l.park = 0.5 }},
		{"duplicate", func(l *simLink) { l.dup = 0.5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forSeeds(func(seed int64) {
				s := newSim(t, seed, 3, simConfig(protocol.NewDeltaBPRR(), 0))
				s.eachLink(tc.fault)
				s.write("key", 60, 2, simPeriod/4)
				s.settle()
			})
		})
	}
}

// TestSimAckedReorderOrDuplicateResendsNothing: on the acked engine, with
// digests on, frames that arrive out of order or twice are all
// acknowledged in time, by the ranges and the mark: no entry is ever sent
// again, no acknowledgement is ignored, and the replicas converge exactly.
// A frame spends under a quarter of a period on the wire and its
// acknowledgement is held at most half of one, so it is back before the
// sender's timer, a full period after the send. With every frame a fifth of
// a period late, duplicates still count once.
func TestSimAckedReorderOrDuplicateResendsNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(l *simLink)
	}{
		{"reorder", func(l *simLink) { l.jitter = simPeriod / 5 }},
		{"duplicate", func(l *simLink) { l.dup, l.jitter = 0.5, simPeriod/10 }},
		{"duplicate-and-delay", func(l *simLink) { l.dup, l.latency = 0.3, simPeriod/5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forSeeds(func(seed int64) {
				s := newSim(t, seed, 3, simConfig(protocol.NewDeltaAcked(true, true), 2))
				s.eachLink(tc.fault)
				for round := 0; round < 3; round++ {
					s.write("key", 40, 1, simPeriod/4)
				}
				s.settle()
				for _, n := range s.nodes {
					if st := n.stats(); st.Retransmits != 0 || st.IgnoredAcks != 0 {
						s.fatalf("%s sent %d entries again and ignored %d acknowledgements on links that lose nothing",
							n.cfg.ID, st.Retransmits, st.IgnoredAcks)
					}
				}
			})
		})
	}
}

// TestSimLongRoundTripDrains: with every frame on the wire for longer than
// the link waits for one, each acknowledgement arrives for a frame that is
// closed already — and still retires it. Nothing is lost, so once the
// writes stop every δ-buffer and every link drains, and over 3·closeAfter
// more periods no entry is sent again.
func TestSimLongRoundTripDrains(t *testing.T) {
	forSeeds(func(seed int64) {
		s := newSim(t, seed, 3, simConfig(protocol.NewDeltaAcked(true, true), 0))
		s.eachLink(func(l *simLink) { l.latency = (closeAfter + 4) * simPeriod })
		for round := 0; round < 4; round++ {
			s.write("key", 30, 1, simPeriod/5)
		}
		s.settle()
		resent := func() (n int) {
			for _, node := range s.nodes {
				n += node.stats().Retransmits
			}
			return n
		}
		before := resent()
		s.run(s.now + 3*closeAfter*simPeriod)
		if after := resent(); after != before {
			s.fatalf("%d entries sent again after everything was acknowledged", after-before)
		}
		for _, n := range s.nodes {
			if got := n.stats().IgnoredAcks; got != 0 {
				s.fatalf("%s ignored %d acknowledgements", n.cfg.ID, got)
			}
			for id, lk := range n.links {
				holdsNothing(t, n.cfg.ID+"→"+id, lk)
			}
		}
	})
}

// TestSimOneWayBlackholeHeals: with every frame from s-00 to s-01 lost and
// the other direction clean, s-01 holds only its own keys for as long as
// the blackhole lasts — whatever s-01's own advertisements make s-00 send,
// and however often the acked engine sends again — while s-00 learns all of
// s-01's. Mended, the link carries the rest: digest repair on the plain
// delta engine, which forgot what it sent, and retransmission on the
// acked one.
func TestSimOneWayBlackholeHeals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine protocol.Factory
	}{
		{"delta", protocol.NewDeltaBPRR()},
		{"acked", protocol.NewDeltaAcked(true, true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forSeeds(func(seed int64) {
				const keys = 20
				s := newSim(t, seed, 2, simConfig(tc.engine, 2))
				s.links[0][1].severed = true
				s.write("key", keys, 1, simPeriod/4)
				for p := 0; p < 4*closeAfter; p++ {
					if got := s.nodes[1].st.NumKeys(); got != keys/2 {
						s.fatalf("the blackhole leaked: s-01 holds %d keys, its own are %d", got, keys/2)
					}
					s.run(s.now + simPeriod)
				}
				if got := s.nodes[0].st.NumKeys(); got != keys {
					s.fatalf("s-00 holds %d keys, want all %d: the clean direction lost frames", got, keys)
				}
				s.settle()
			})
		})
	}
}

// simLossReorderPartition is the battery's faults together on the acked
// engine with digests: a fifth of all frames lost and frames overtaking
// each other on every link, plus a partition that isolates s-00 while
// writes land on both sides, healed after them. onSend, when not nil, is
// shown every frame handed to a link after the first hellos.
func simLossReorderPartition(t testing.TB, seed int64, onSend func(data []byte)) *sim {
	const keys = 120
	s := newSim(t, seed, 3, simConfig(protocol.NewDeltaAcked(true, true), 2))
	s.onSend = onSend
	s.eachLink(func(l *simLink) { l.drop, l.jitter = 0.2, simPeriod/5 })
	for j := 1; j < 3; j++ {
		s.links[0][j].severed, s.links[j][0].severed = true, true
	}
	s.write("key", keys, 1, simPeriod/4)
	if got := s.nodes[0].st.NumKeys(); got != keys/3 {
		s.fatalf("partitioned s-00 holds %d keys, want only its own %d", got, keys/3)
	}
	for j := 1; j < 3; j++ {
		s.links[0][j].severed, s.links[j][0].severed = false, false
	}
	s.run(s.now + 2*closeAfter*simPeriod) // healed, and still lossy
	s.settle()
	return s
}

// TestSimLossReorderAndPartitionConverge: under loss, reordering and a
// partition, every counter, set and map field ends at exactly the
// sequential join of its writes on every replica once the partition heals.
// The frames carry each datatype's item form: a one-entry counter's and a
// one-element set's δ-group in its short form, a map field's as tagKeyEntry
// and its register; runs of more than one keyed item, whose keys after the
// first are written against the one before, most of them sharing a prefix
// with it; and replica names, each spelled once in a frame's run and
// referred to by every later counter entry and register writer there.
func TestSimLossReorderAndPartitionConverge(t *testing.T) {
	forms := make(map[byte]int)
	var frames, keyed, followers, sharing, spelled, referred int
	var v codec.FrameView
	count := func(data []byte) {
		if codec.UnpackFrame(data, 8, &v) != nil {
			return // a hello or an advertisement
		}
		for _, g := range v.Groups() {
			for i := range g.Items {
				if g.Items[i].Key != nil {
					forms[g.Items[i].Tag()]++
				}
			}
		}
		run := frameOf(t, data).keyed
		if len(run) > 0 {
			frames++
			keyed += len(run)
		}
		names := make(map[string]bool)
		for _, om := range run {
			simReplicaNames(om.Inner.(*protocol.DeltaMsg).Delta, func(name string) {
				if names[name] {
					referred++
				} else {
					names[name] = true
					spelled++
				}
			})
		}
		for i := 1; i < len(run); i++ {
			followers++
			if a, b := run[i-1].Key, run[i].Key; len(a) > 0 && len(b) > 0 && a[0] == b[0] {
				sharing++
			}
		}
	}
	forSeeds(func(seed int64) {
		if seed == 1 {
			simLossReorderPartition(t, seed, count)
		} else {
			simLossReorderPartition(t, seed, nil)
		}
	})
	// A one-entry GCounter's and a one-element GSet's short forms, and
	// tagKeyEntry with an LWW register.
	for _, tag := range []byte{12, 13, 11} {
		if forms[tag] == 0 {
			t.Errorf("no keyed item tagged %d on the wire, among %v", tag, forms)
		}
	}
	if sharing == 0 {
		t.Errorf("%d keyed items followed another in their frame's run, none sharing a prefix with it", followers)
	}
	if spelled == 0 || referred == 0 {
		t.Errorf("%d replica names spelled in full and %d referred to, want both", spelled, referred)
	}
	perFrame := func(n int) float64 { return float64(n) / float64(max(frames, 1)) }
	t.Logf("seed 1: %d keyed items in %d data frames (%.2f a frame), %d following another in their frame's run, %d sharing a prefix with it",
		keyed, frames, perFrame(keyed), followers, sharing)
	t.Logf("seed 1, a data frame: %.2f replica names spelled in full, %.2f referred to, %.2f short forms (%d counters, %d sets over the run)",
		perFrame(spelled), perFrame(referred), perFrame(forms[12]+forms[13]), forms[12], forms[13])
}

// simReplicaNames shows fn each replica name a δ-group of the sim's schema
// writes: a counter's entry ids, a map field's writer.
func simReplicaNames(s lattice.State, fn func(string)) {
	switch v := s.(type) {
	case *crdt.GCounter:
		v.Range(func(id string, _ uint64) bool {
			fn(id)
			return true
		})
	case *lattice.Map:
		for _, e := range v.Sorted() {
			simReplicaNames(e.Val, fn)
		}
	case *crdt.LWWRegister:
		fn(v.Writer)
	}
}

// TestSimIsDeterministic: a run replays from its seed. Two runs of one seed
// hand the same bytes to the same links at the same times, and two seeds
// make different runs.
func TestSimIsDeterministic(t *testing.T) {
	var last uint64
	forSeeds(func(seed int64) {
		a := simLossReorderPartition(t, seed, nil).trace.Sum64()
		if b := simLossReorderPartition(t, seed, nil).trace.Sum64(); a != b {
			t.Fatalf("seed %d ran twice: traces %x and %x", seed, a, b)
		}
		if a == last {
			t.Fatalf("seeds %d and %d ran alike: trace %x", seed-1, seed, a)
		}
		last = a
	})
}

// TestSimOneLostFrameResendsOnlyItsEntries: of ten frames one link carries,
// the fifth is lost (the link's sixth, behind the hello). The receiver
// acknowledges up to the fourth and the range above the gap, so when the
// engine's timer fires — on the second tick after the send — only the
// fifth frame's three entries are sent again, nothing else and nothing
// twice. The lost frame's record is kept until the link stops waiting for
// it, closeAfter ticks on, and dropped once a later frame has told the
// receiver so.
func TestSimOneLostFrameResendsOnlyItsEntries(t *testing.T) {
	const frames, perFrame, lost = 10, 3, 5
	forSeeds(func(seed int64) {
		s := newSim(t, seed, 2, simConfig(protocol.NewDeltaAcked(true, true), 0))
		s.links[0][1].lose = func(n int) bool { return n == lost+1 }
		sender, receiver := s.nodes[0], s.nodes[1]
		lk := sender.links["s-01"]
		link := func() PeerStats { return sender.stats().Peers["s-01"] }
		// From the sender's first tick on, each write leaves in a frame of
		// its own, a flush window after the last: the ten fill the first
		// tick period and a quarter of the second.
		s.runTo(sender, simPeriod)
		for f := 1; f <= frames; f++ {
			for i := 0; i < perFrame; i++ {
				s.update(0, workload.Inc(fmt.Sprintf("c/k%02d-%d", f, i), 1))
			}
			for lk.sent < uint64(f) {
				s.run(s.now + simPeriod/64)
			}
		}
		// Just before the third tick, every acknowledgement is back and
		// nothing has been sent again.
		s.runTo(sender, 3*simPeriod-1)
		if ps := link(); ps.LastSent != frames || ps.LastAcked != lost-1 || ps.InFlight != 1 {
			s.fatalf("sender's view: %+v, want %d sent, the mark at %d and one in flight", ps, frames, lost-1)
		}
		if got := sender.stats().Retransmits; got != 0 {
			s.fatalf("%d retransmissions before the timer", got)
		}
		if got := receiver.st.NumKeys(); got != (frames-1)*perFrame {
			s.fatalf("receiver holds %d keys, want %d", got, (frames-1)*perFrame)
		}
		// The third tick sends the lost frame's entries again, and they are
		// acknowledged; the lost frame's own record stays open — its number
		// will never be acknowledged.
		s.runTo(sender, 4*simPeriod-1)
		if ps, st := link(), sender.stats(); st.Retransmits != perFrame || ps.LastSent != frames+1 || ps.InFlight != 1 {
			s.fatalf("%d retransmissions, link %+v; want the lost frame's %d entries in frame %d, one in flight",
				st.Retransmits, ps, perFrame, frames+1)
		}
		if got := receiver.st.NumKeys(); got != frames*perFrame {
			s.fatalf("receiver holds %d keys, want %d", got, frames*perFrame)
		}
		// closeAfter ticks after its own, the link stops waiting for it.
		s.runTo(sender, (closeAfter+2)*simPeriod)
		if ps, st := link(), sender.stats(); st.Retransmits != perFrame || ps.LastSent != frames+1 || ps.InFlight != 0 {
			s.fatalf("after %d more ticks: %d retransmissions, link %+v; want %d, %d frames sent and none in flight",
				closeAfter, st.Retransmits, ps, perFrame, frames+1)
		}
		if m := sender.st.Memory(); m.BufferBytes != 0 {
			s.fatalf("sender's δ-buffers still hold %d bytes", m.BufferBytes)
		}
		// The record is kept, for an acknowledgement that is only late, until
		// the receiver has seen a frame that says it is not waited for: the
		// next one, whose acknowledgement passes the lost number for that
		// reason alone and retires nothing of it.
		if lk.kept != lost || lk.first != frames+2 || lk.rec(lost).closed != frames+2 {
			s.fatalf("records kept from %d, waited for from %d, the lost one closed at %d; want %d, %d, %d",
				lk.kept, lk.first, lk.rec(lost).closed, lost, frames+2, frames+2)
		}
		s.update(0, workload.Inc("c/one-more", 1))
		s.run(s.now + simPeriod)
		if ps := link(); ps.InFlight != 0 || ps.LastAcked != frames+2 {
			s.fatalf("after one more frame: %+v, want the mark at %d", ps, frames+2)
		}
		holdsNothing(t, "sender", lk)
		if st := sender.stats(); st.Retransmits != perFrame || st.IgnoredAcks != 0 {
			s.fatalf("%d retransmissions, %d ignored acknowledgements; want %d and 0", st.Retransmits, st.IgnoredAcks, perFrame)
		}
		s.settle()
	})
}
