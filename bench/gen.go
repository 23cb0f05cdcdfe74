package main

import (
	"math/rand"
	"strconv"

	"crdtsync"
)

// The generator is the only source of inputs: the stores under test see
// nothing but the ops it emits. It is a pure function of (seed, phase), so
// the oracle rebuilds the expected state by running it a second time
// instead of keeping an op log on the heap the benchmark measures.

type opKind uint8

const (
	opInc opKind = iota
	opAdd
	opPut
	opProbe
)

// op is one update through a typed handle on one replica.
type op struct {
	kind    opKind
	replica int
	name    string // counter, set or map name
	field   string // map field (opPut)
	arg     string // set element or map value
	n       uint64 // increment (opInc)
	probe   int    // probe key index (opProbe)
}

// numProbeKeys spreads probes over enough counters to touch most shards.
const numProbeKeys = 64

// fieldsPerMap groups map fields into maps of this many fields.
const fieldsPerMap = 50

// Seeds of the independent streams derived from --seed.
const (
	streamPreload = iota + 1
	streamWindow
	streamRestart
	streamReads
	streamArrivals
	streamFault
)

func streamSeed(seed int64, stream int) int64 { return seed*16 + int64(stream) }

// pad formats prefix + n zero-padded to width without fmt.
func pad(prefix string, n, width int) string {
	b := make([]byte, 0, len(prefix)+width)
	b = append(b, prefix...)
	s := strconv.Itoa(n)
	for i := len(s); i < width; i++ {
		b = append(b, '0')
	}
	return string(append(b, s...))
}

func probeName(i int) string { return pad("p/", i, 2) }

// probeIndex is the inverse of probeName on a probe counter's object key.
func probeIndex[T ~string | ~[]byte](key T) (int, bool) {
	idx := 0
	for i := len(probeKeyPrefix); i < len(key); i++ {
		if key[i] < '0' || key[i] > '9' {
			return 0, false
		}
		idx = idx*10 + int(key[i]-'0')
	}
	return idx, len(key) > len(probeKeyPrefix)
}

// universe is the preloaded key space, split 50/30/20 into counters,
// sets and map fields.
type universe struct{ counters, sets, fields int }

func newUniverse(keys int) universe {
	c, s := keys/2, keys*3/10
	return universe{counters: c, sets: s, fields: keys - c - s}
}

// generator emits one phase's ops in order.
type generator struct {
	rng *rand.Rand
	u   universe
	// fresh > 0 makes every op create a new key numbered from freshBase;
	// otherwise keys are drawn uniformly from the universe.
	fresh      bool
	freshBase  int
	replicas   int // ops are spread over replicas [0, replicas)
	probeEvery int
	emitted    int
	probes     int
}

// preloadGen writes every key of the universe once.
func preloadGen(seed int64, s spec) *generator {
	return &generator{rng: rand.New(rand.NewSource(streamSeed(seed, streamPreload))),
		u: newUniverse(s.preload), replicas: numReplicas}
}

// windowGen emits the timed window's updates.
func windowGen(seed int64, s spec) *generator {
	return &generator{rng: rand.New(rand.NewSource(streamSeed(seed, streamWindow))),
		u: newUniverse(s.preload), fresh: s.freshKeys, replicas: numReplicas,
		probeEvery: s.probeEvery}
}

// probeGen emits nothing but probes: the closed loops' quiet phase.
func probeGen() *generator { return &generator{probeEvery: 1} }

// restartGen emits the keys written while the watch replica is down; the
// two surviving replicas are the low-numbered ones.
func restartGen(seed int64, s spec) *generator {
	return &generator{rng: rand.New(rand.NewSource(streamSeed(seed, streamRestart))),
		u: newUniverse(s.preload), fresh: true, freshBase: 1 << 24, replicas: numReplicas - 1}
}

// preloadOp returns the op that creates universe key i.
func (g *generator) preloadOp(i int) op {
	switch {
	case i < g.u.counters:
		return g.inc(i%g.replicas, pad("k", i, 7))
	case i < g.u.counters+g.u.sets:
		return g.add(i%g.replicas, pad("k", i-g.u.counters, 7))
	default:
		return g.put(i-g.u.counters-g.u.sets, "k")
	}
}

// next returns the phase's next update.
func (g *generator) next() op {
	i := g.emitted
	g.emitted++
	if g.probeEvery > 0 && i%g.probeEvery == g.probeEvery-1 {
		p := g.probes % numProbeKeys
		g.probes++
		return op{kind: opProbe, replica: writeReplica, probe: p, name: probeName(p), n: 1}
	}
	class := g.rng.Intn(10)
	if g.fresh {
		n := g.freshBase + i
		switch {
		case class < 5:
			return g.inc(n%g.replicas, pad("n", n, 8))
		case class < 8:
			return g.add(n%g.replicas, pad("n", n, 8))
		default:
			return g.put(n, "n")
		}
	}
	switch {
	case class < 5:
		return g.inc(g.rng.Intn(g.replicas), pad("k", g.rng.Intn(g.u.counters), 7))
	case class < 8:
		return g.add(g.rng.Intn(g.replicas), pad("k", g.rng.Intn(g.u.sets), 7))
	default:
		return g.put(g.rng.Intn(g.u.fields), "k")
	}
}

func (g *generator) inc(replica int, name string) op {
	return op{kind: opInc, replica: replica, name: name, n: uint64(1 + g.rng.Intn(9))}
}

func (g *generator) add(replica int, name string) op {
	return op{kind: opAdd, replica: replica, name: name, arg: pad("e", g.rng.Intn(256), 3)}
}

// put writes map field f. Each field has one owning replica: last-writer-
// wins versions are assigned from what the writer has seen, so concurrent
// writers would make the winner depend on timing and the oracle inexact.
func (g *generator) put(f int, prefix string) op {
	return op{kind: opPut, replica: f % g.replicas,
		name:  pad(prefix, f/fieldsPerMap, 6),
		field: pad("f", f%fieldsPerMap, 2),
		arg:   strconv.FormatUint(g.rng.Uint64(), 36)}
}

// key is the raw object key the op touches.
func (o op) key() string {
	switch o.kind {
	case opInc, opProbe:
		return crdtsync.CounterPrefix + o.name
	case opAdd:
		return crdtsync.SetPrefix + o.name
	default:
		return crdtsync.MapPrefix + o.name + "/" + o.field
	}
}

// issue applies the op through the typed handles of its replica.
func (o op) issue(stores []*crdtsync.Store) {
	st := stores[o.replica]
	switch o.kind {
	case opInc, opProbe:
		st.Counter(o.name).Inc(o.n)
	case opAdd:
		st.Set(o.name).Add(o.arg)
	default:
		st.Map(o.name).Put(o.field, o.arg)
	}
}

// expected is the sequential join of every op generated: what each
// replica must hold once converged.
type expected struct {
	counters map[string]uint64
	sets     map[string]map[string]struct{}
	fields   map[string]string
}

func newExpected() *expected {
	return &expected{
		counters: make(map[string]uint64),
		sets:     make(map[string]map[string]struct{}),
		fields:   make(map[string]string),
	}
}

func (e *expected) apply(o op) {
	k := o.key()
	switch o.kind {
	case opInc, opProbe:
		e.counters[k] += o.n
	case opAdd:
		s := e.sets[k]
		if s == nil {
			s = make(map[string]struct{})
			e.sets[k] = s
		}
		s[o.arg] = struct{}{}
	default:
		e.fields[k] = o.arg
	}
}

func (e *expected) keys() int { return len(e.counters) + len(e.sets) + len(e.fields) }
