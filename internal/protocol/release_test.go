package protocol_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// spyType is the GSet datatype, remembering the last δ its δ-mutator
// returned so a test can watch that very object being collected.
type spyType struct {
	workload.GSetType
	last *lattice.State
}

func (s spyType) Delta(st lattice.State, replica string, op workload.Op) lattice.State {
	d := s.GSetType.Delta(st, replica, op)
	*s.last = d
	return d
}

// collected reports whether the finalizer behind freed runs within a few
// collections.
func collected(freed *atomic.Bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		if freed.Load() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestShippedDeltaGroupIsReleased pins that an engine keeps no reference
// to a δ-group it is done with: the delta engine after the Sync that
// shipped it and cleared the buffer, the acked engine after the last
// acknowledgment. Truncating the buffer in place (entries[:0]) kept the
// last δ-group of every object reachable for the life of the object.
func TestShippedDeltaGroupIsReleased(t *testing.T) {
	for name, inner := range map[string]protocol.Factory{
		"delta": protocol.NewDeltaBPRR(),
		"acked": protocol.NewDeltaAcked(true, true),
	} {
		t.Run(name, func(t *testing.T) {
			var last lattice.State
			a, b := twoNodes(inner, spyType{last: &last})
			a.LocalOp(addOp("x"))
			var freed atomic.Bool
			runtime.SetFinalizer(last.(*crdt.GSet), func(*crdt.GSet) { freed.Store(true) })
			last = nil
			if mem := a.Memory(); mem.BufferBytes == 0 {
				t.Fatal("the δ-group was never buffered")
			}
			// One step of a: b receives the δ-group and, if the engine
			// acknowledges, a receives the acknowledgment.
			pump(map[string]protocol.Engine{"a": a, "b": b}, "a")
			if mem := a.Memory(); mem.BufferBytes != 0 {
				t.Fatalf("%d bytes of δ-groups still buffered after the exchange", mem.BufferBytes)
			}
			if !collected(&freed) {
				t.Error("the shipped δ-group is still reachable")
			}
			if !b.State().(*crdt.GSet).Contains("x") {
				t.Error("the δ-group never arrived")
			}
			runtime.KeepAlive(a)
		})
	}
}

// TestRedundantDeliverObjectAllocs pins the steady state of the receive
// path: a δ-group the object already covers is recognized and dropped
// without allocating anything (the acked engine allocates the
// acknowledgment it owes, and nothing else).
func TestRedundantDeliverObjectAllocs(t *testing.T) {
	keys := [][]byte{[]byte("c/k0000001"), []byte("s/k0000002"), []byte("m/k000003/f01")}
	ops := []workload.Op{
		workload.Inc(string(keys[0]), 3),
		workload.Add(string(keys[1]), "e001"),
		workload.Put(string(keys[2]), "v"),
	}
	for _, c := range []struct {
		name  string
		inner protocol.Factory
		want  float64
	}{
		{"delta", protocol.NewDeltaBPRR(), 0},
		{"acked", protocol.NewDeltaAcked(true, true), 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := newMesh(c.inner)
			msgs := make(map[string]protocol.Msg) // what r0 sends r1, per object
			for _, op := range ops {
				m.engines["r0"].LocalOp(op)
			}
			m.engines["r0"].Sync(func(to string, msg protocol.Msg) {
				if to == "r1" {
					for _, it := range msg.(*protocol.BatchMsg).Items {
						msgs[it.Key] = it.Inner
					}
				}
			})
			if len(msgs) != len(keys) {
				t.Fatalf("r0 sent %d object messages, want %d", len(msgs), len(keys))
			}
			od := m.engines["r1"].(protocol.ObjectDeliverer)
			discard := func(string, protocol.Msg) {}
			deliver := func() {
				for _, key := range keys {
					od.DeliverObject("r0", key, msgs[string(key)], discard)
				}
			}
			deliver() // the first delivery creates and fills the objects
			if n := testing.AllocsPerRun(100, deliver) / float64(len(keys)); n > c.want {
				t.Errorf("a redundant δ-group costs %.2f allocations to deliver, want ≤ %.0f", n, c.want)
			}
		})
	}
}

// TestPerObjectKeysStayOrdered pins the lazily ordered key index: keys
// created in any order, before, between and after ordered visits, come
// back ascending and complete, and each holds a state of the datatype its
// key names.
func TestPerObjectKeysStayOrdered(t *testing.T) {
	e := protocol.NewPerObject(protocol.NewDeltaBPRR(), storeObjType)(
		protocol.Config{ID: "r0", Neighbors: []string{"r1"}, Nodes: []string{"r0", "r1"}}).(protocol.KeyedEngine)
	want := 0
	check := func() {
		t.Helper()
		var keys []string
		e.Scan("", func(k string, st lattice.State) bool {
			if st == nil || st != e.ObjectState(k) {
				t.Fatalf("key %q visited with state %v, ObjectState has %v", k, st, e.ObjectState(k))
			}
			keys = append(keys, k)
			return true
		})
		if len(keys) != want || e.NumKeys() != want {
			t.Fatalf("Scan visits %d, NumKeys says %d, want %d", len(keys), e.NumKeys(), want)
		}
		for i, k := range keys {
			if i > 0 && keys[i-1] >= k {
				t.Fatalf("key %d = %q follows %q", i, k, keys[i-1])
			}
		}
	}
	check()
	for _, batch := range [][]int{{5, 900, 3, 77}, {}, {2, 4, 1000, 1}, {6}, {899, 901, 0}} {
		for _, i := range batch {
			e.LocalOp(storeOp(i))
			e.LocalOp(storeOp(i)) // an existing key is not indexed twice
			want++
		}
		check()
	}
	if st, ok := e.ObjectState(storeOp(3).Key).(*crdt.GCounter); !ok || st.Value() == 0 {
		t.Errorf("counter object = %v", e.ObjectState(storeOp(3).Key))
	}
	if st, ok := e.ObjectState(storeOp(6).Key).(*crdt.GSet); !ok || st.Len() != 1 {
		t.Errorf("set object = %v", e.ObjectState(storeOp(6).Key))
	}
}
