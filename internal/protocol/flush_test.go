package protocol_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// flushNet is a full mesh of per-object acked engines driven by explicit
// Flush and Sync calls, with a FIFO of in-flight messages the test drains
// (or drops from) by hand. It counts what the engines ship.
type flushNet struct {
	ids      []string
	engines  map[string]protocol.Engine
	queue    []flushEnv
	elements int // lattice elements shipped, as the batches account them
	messages int // object messages shipped
}

type flushEnv struct {
	from, to string
	m        protocol.Msg
}

func newFlushNet(n int) *flushNet { return newFlushNetWith(n, false) }

// newFlushNetWith builds the mesh; with announced, every node has heard
// every neighbor say that it reaches all the others.
func newFlushNetWith(n int, announced bool) *flushNet {
	net := &flushNet{engines: make(map[string]protocol.Engine)}
	for i := 0; i < n; i++ {
		net.ids = append(net.ids, fmt.Sprintf("n%d", i))
	}
	factory := protocol.NewPerObject(protocol.NewDeltaAcked(true, true),
		func(string) workload.Datatype { return workload.GSetType{} })
	for i, id := range net.ids {
		neighbors := append(append([]string(nil), net.ids[:i]...), net.ids[i+1:]...)
		var reach *protocol.Reach
		if announced {
			reach = protocol.NewReach(neighbors)
			for _, o := range neighbors {
				reach.Set(o, net.ids)
			}
		}
		net.engines[id] = factory(protocol.Config{ID: id, Neighbors: neighbors, Nodes: net.ids, Reach: reach})
	}
	return net
}

func (n *flushNet) sender(from string) protocol.Sender {
	return func(to string, m protocol.Msg) {
		c := m.Cost()
		n.elements += c.Elements
		n.messages += len(m.(*protocol.BatchMsg).Items)
		n.queue = append(n.queue, flushEnv{from, to, m})
	}
}

func (n *flushNet) flush(id string) { n.engines[id].(protocol.Flusher).Flush(n.sender(id)) }
func (n *flushNet) tick(id string)  { n.engines[id].Sync(n.sender(id)) }

// deliver drains the queue, replies included.
func (n *flushNet) deliver() {
	for len(n.queue) > 0 {
		e := n.queue[0]
		n.queue = n.queue[1:]
		n.engines[e.to].Deliver(e.from, e.m, n.sender(e.to))
	}
}

func (n *flushNet) retransmits() uint64 {
	var total uint64
	for _, e := range n.engines {
		total += e.(interface{ Retransmits() uint64 }).Retransmits()
	}
	return total
}

// TestFlushMeshShipsEachEntryOnce: on a lossless 3-node full mesh, driven
// by flushes with a tick now and then, every entry reaches each neighbor
// exactly once, nothing is retransmitted and every buffer drains. Under BP
// alone that is 4 elements per update (two first-hand sends, two forwards
// BP cannot avoid); once every node has heard that its neighbors reach
// each other, the forwards go and it is 2.
func TestFlushMeshShipsEachEntryOnce(t *testing.T) {
	for _, c := range []struct {
		name      string
		announced bool
		perUpdate int
	}{
		{"bp alone", false, 4},
		{"neighbors announce whom they reach", true, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			const updates = 300
			net := newFlushNetWith(3, c.announced)
			for u := 0; u < updates; u++ {
				writer := net.ids[u%3]
				net.engines[writer].LocalOp(workload.Add(fmt.Sprintf("key-%02d", u%17), fmt.Sprintf("e%d", u)))
				if u%4 == 3 {
					continue // let a few writes share a flush
				}
				net.flush(writer)
				net.deliver()
				for _, id := range net.ids { // the forwards the deliveries left
					net.flush(id)
				}
				net.deliver()
				if u%10 == 9 {
					for _, id := range net.ids {
						net.tick(id)
					}
					net.deliver()
				}
			}
			for round := 0; round < 3; round++ {
				for _, id := range net.ids {
					net.tick(id)
				}
				net.deliver()
			}
			if got := net.elements; got != c.perUpdate*updates {
				t.Errorf("%d elements shipped for %d updates, want exactly %d each", got, updates, c.perUpdate)
			}
			if got := net.retransmits(); got != 0 {
				t.Errorf("%d retransmissions on a lossless mesh", got)
			}
			want := net.engines[net.ids[0]].State()
			for _, id := range net.ids {
				e := net.engines[id]
				if !e.State().Equal(want) {
					t.Errorf("%s diverged", id)
				}
				if m := e.Memory(); m.BufferBytes != 0 {
					t.Errorf("%s still buffers %d bytes", id, m.BufferBytes)
				}
				if fl := e.(protocol.Flusher); fl.Unsent() || fl.Waiting() {
					t.Errorf("%s not quiescent: unsent=%v waiting=%v", id, fl.Unsent(), fl.Waiting())
				}
			}
		})
	}
}

// TestFlushSkipsWaitingObjects: an object whose entries have all been
// sent and only wait for acks emits nothing on flushes — the flush does
// not even visit it — and the tick still does, once a full tick has
// passed since the send.
func TestFlushSkipsWaitingObjects(t *testing.T) {
	net := newFlushNet(3)
	e := net.engines["n0"]
	fl := e.(protocol.Flusher)
	keysOf := func() (keys []string) {
		for _, env := range net.queue {
			if env.to == "n1" {
				for _, it := range env.m.(*protocol.BatchMsg).Items {
					keys = append(keys, it.Key)
				}
			}
		}
		net.queue = nil // every message is lost
		return keys
	}
	e.LocalOp(workload.Add("a", "1"))
	net.flush("n0")
	if got := keysOf(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("first flush shipped %v, want [a]", got)
	}
	if fl.Unsent() || !fl.Waiting() {
		t.Fatalf("after the flush: unsent=%v waiting=%v", fl.Unsent(), fl.Waiting())
	}
	e.LocalOp(workload.Add("b", "1"))
	net.flush("n0")
	if got := keysOf(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("second flush shipped %v, want [b] alone: a only waits", got)
	}
	net.flush("n0")
	if got := keysOf(); len(got) != 0 {
		t.Fatalf("a flush with nothing new shipped %v", got)
	}
	net.tick("n0") // less than a full tick since either send
	if got := keysOf(); len(got) != 0 {
		t.Fatalf("the tick right after the flushes re-sent %v", got)
	}
	net.tick("n0")
	if got := keysOf(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("the second tick re-sent %v, want [a b]: a waiting object is still the tick's", got)
	}
	if got := net.retransmits(); got != 2 {
		t.Errorf("Retransmits = %d, want 2", got)
	}
}

// mallocs counts the heap allocations f makes, as the least over rounds
// calls, each after prepare (when not nil). The count is the whole
// process's, so an allocation another goroutine makes meanwhile — the
// runtime's, or a test running in parallel — lands in one reading; what f
// makes lands in every one.
func mallocs(rounds int, prepare, f func()) uint64 {
	least := uint64(math.MaxUint64)
	for r := 0; r < rounds; r++ {
		if prepare != nil {
			prepare()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestFlushAllocatesOnlyItsMessages pins the per-pass fixed cost at zero:
// a flush over k queued objects allocates the messages it emits — per
// object and neighbor a δ-group clone, its seq list and the message, per
// neighbor a batch and its item slice — and no key slice, sort scratch,
// batcher or closure; a flush that finds nothing new allocates nothing.
func TestFlushAllocatesOnlyItsMessages(t *testing.T) {
	const k, neighbors = 16, 2
	net := newFlushNet(neighbors + 1)
	e := net.engines["n0"]
	fl := e.(protocol.Flusher)
	discard := func(string, protocol.Msg) {}
	write := func(round int) {
		for i := 0; i < k; i++ {
			e.LocalOp(workload.Add(fmt.Sprintf("key-%02d", i), fmt.Sprintf("e%d", round)))
		}
	}
	write(0)
	fl.Flush(discard) // warm the engine's scratch
	if n := testing.AllocsPerRun(100, func() { fl.Flush(discard) }); n != 0 {
		t.Errorf("a flush with nothing new allocates %.1f times", n)
	}
	// One singleton δ-group clone, measured rather than assumed.
	delta := workload.GSetType{}.Delta(workload.GSetType{}.New(), "n0", workload.Add("k", "e"))
	perClone := mallocs(5, nil, func() { delta.Clone() })
	// Per neighbor: the BatchMsg, and its item slice grown by doubling
	// from one to k entries (1, 2, 4, 8, 16: five arrays).
	perBatch := uint64(1 + 5)
	want := neighbors * (k*(perClone+2) + perBatch)
	round := 0
	next := func() { round++; write(round) }
	if got := mallocs(5, next, func() { fl.Flush(discard) }); got > want {
		t.Errorf("a flush over %d objects to %d neighbors allocates %d times, want at most %d (its messages)", k, neighbors, got, want)
	}
}

// TestFlushSkipsHeldForwards: once the pass that forwards c's δ-groups of
// 16 objects to d has left only the forwards to a held, b's keyspace
// queues no object: every later Flush finds nothing to do — visits no
// object, sends nothing and allocates nothing — until a tick ends the
// holds, the second after the δ-groups arrived.
func TestFlushSkipsHeldForwards(t *testing.T) {
	const k = 16
	b := reachKeyspace()
	for i := 0; i < k; i++ {
		b.DeliverObject("c", []byte(fmt.Sprintf("key-%02d", i)), protocol.NewDeltaMsg(crdt.NewGSet("y")), discard)
	}
	if got := flushedBy(b); len(got) != 1 || len(got["d"]) != k {
		t.Fatalf("the first flush sent %v, want y of every object to d alone", got)
	}
	if b.Unsent() || !b.Holds() {
		t.Fatalf("after the first flush: unsent=%v holds=%v, want no object queued and the forwards held", b.Unsent(), b.Holds())
	}
	sends := 0
	count := func(string, protocol.Msg) { sends++ }
	if n := testing.AllocsPerRun(100, func() { b.Flush(count) }); n != 0 || sends != 0 {
		t.Errorf("a flush over held forwards sent %d messages and allocates %.1f times, want none", sends, n)
	}
	if got := sentBy(b); len(got) != 0 {
		t.Fatalf("the first tick sent %v, want nothing", got)
	}
	if got := sentBy(b); len(got) != 1 || len(got["a"]) != k || b.Holds() || b.Waiting() {
		t.Errorf("the second tick sent %v, holds=%v waiting=%v, want y of every object to a and nothing left", got, b.Holds(), b.Waiting())
	}
}
