package protocol_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"crdtsync/internal/codec"
	"crdtsync/internal/lattice"
	"crdtsync/internal/protocol"
	"crdtsync/internal/workload"
)

// storeObjType is the store's prefix schema: counters, sets, and one
// LWW map field per remaining key.
func storeObjType(key string) workload.Datatype {
	switch {
	case strings.HasPrefix(key, "c/"):
		return workload.GCounterType{}
	case strings.HasPrefix(key, "s/"):
		return workload.GSetType{}
	default:
		return workload.LWWMapType{}
	}
}

// storeOp returns the op that creates key i of the 50/30/20
// counter/set/map-field mix the benchmark writes.
func storeOp(i int) workload.Op {
	switch c := i % 10; {
	case c < 5:
		return workload.Inc(fmt.Sprintf("c/n%08d", i), uint64(1+i%9))
	case c < 8:
		return workload.Add(fmt.Sprintf("s/n%08d", i), fmt.Sprintf("e%03d", i%256))
	default:
		return workload.Put(fmt.Sprintf("m/n%06d/f%02d", i/16, i%16), fmt.Sprintf("%x", uint64(i)*0x9e3779b97f4a7c15))
	}
}

// mesh is three per-object engines that are mutual neighbours, with
// messages taken through the wire codec on the way, as between stores:
// a receiver's states share no memory with the sender's.
type mesh struct {
	ids     []string
	engines map[string]protocol.Engine
}

func newMesh(inner protocol.Factory) *mesh {
	m := &mesh{ids: []string{"r0", "r1", "r2"}, engines: make(map[string]protocol.Engine)}
	f := protocol.NewPerObject(inner, storeObjType)
	for _, id := range m.ids {
		var neighbors []string
		for _, n := range m.ids {
			if n != id {
				neighbors = append(neighbors, n)
			}
		}
		m.engines[id] = f(protocol.Config{ID: id, Neighbors: neighbors, Nodes: m.ids})
	}
	return m
}

// round runs one synchronization step of every engine and delivers what
// it sent, and what that provoked (acknowledgments), until nothing is in
// flight.
func (m *mesh) round(t testing.TB) {
	type env struct {
		from, to string
		m        protocol.Msg
	}
	var queue []env
	sender := func(src string) protocol.Sender {
		return func(to string, msg protocol.Msg) { queue = append(queue, env{src, to, msg}) }
	}
	for _, id := range m.ids {
		m.engines[id].Sync(sender(id))
	}
	for len(queue) > 0 {
		e := queue[0]
		queue[0] = env{}
		queue = queue[1:]
		msg := e.m
		if !acksOnly(msg) {
			data, err := codec.EncodeMsg(msg)
			if err != nil {
				t.Fatal(err)
			}
			if msg, _, err = codec.DecodeMsg(data); err != nil {
				t.Fatal(err)
			}
		}
		m.engines[e.to].Deliver(e.from, msg, sender(e.to))
	}
}

// acksOnly reports whether m is a batch of per-object acknowledgements:
// between stores the link header says what they say, so they have no wire
// form — and no state a receiver could share with the sender.
func acksOnly(m protocol.Msg) bool {
	bm, ok := m.(*protocol.BatchMsg)
	for i := 0; ok && i < len(bm.Items); i++ {
		_, ok = bm.Items[i].Inner.(*protocol.AckMsg)
	}
	return ok
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPerObjectHeapPerKey pins what a resident key costs: 100 000 keys in
// the benchmark's 50/30/20 counter/set/map-field mix, each written at one
// of three replicas, synchronized to the other two and acknowledged, then
// two collections. This is the benchmark's heap_bytes_per_key without the
// transport around it; before δ-buffers were released and small states
// laid out flat it read 877 (delta) and 1157 (acked) bytes, and with every
// key in a map[string]Engine, a sorted []string and a string of its own,
// 219 and 241; the key record table read 191 and 207 with an engine object
// per key (48 and 64 bytes) behind an interface header in its record. With
// the state in the record and δ-buffers in a side table that holds only the
// non-empty ones, they read 140 and 143; with a one-entry counter, set or
// map one small object and a map field's entry holding its record's key,
// both read 123.
func TestPerObjectHeapPerKey(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three 100k-key engines")
	}
	const keys, batch, limit = 100_000, 5_000, 128
	factories := []struct {
		name  string
		inner protocol.Factory
	}{
		{"delta", protocol.NewDeltaBPRR()},
		{"acked", protocol.NewDeltaAcked(true, true)},
	}
	for _, f := range factories {
		t.Run(f.name, func(t *testing.T) {
			before := heapAlloc()
			m := newMesh(f.inner)
			for i := 0; i < keys; i++ {
				m.engines[m.ids[i%3]].LocalOp(storeOp(i))
				if i%batch == batch-1 {
					m.round(t)
				}
			}
			m.round(t)
			m.round(t) // nothing left to send: every engine goes quiescent
			perKey := float64(heapAlloc()-before) / (3 * keys)
			for _, id := range m.ids {
				if n := m.engines[id].(protocol.KeyedEngine).NumKeys(); n != keys {
					t.Fatalf("%s holds %d keys, want %d", id, n, keys)
				}
				if mem := m.engines[id].Memory(); mem.BufferBytes != 0 {
					t.Errorf("%s still buffers %d bytes of δ-groups", id, mem.BufferBytes)
				}
			}
			t.Logf("%s: %.0f heap bytes per key", f.name, perKey)
			if perKey > limit {
				t.Errorf("%s: %.0f heap bytes per key, want ≤ %d", f.name, perKey, limit)
			}
			runtime.KeepAlive(m)
		})
	}
}

// TestPerObjectHeapPerKeySmallShards is the same pin on the other shape a
// store has: 64 engines of 312 keys each — one replica of a 20 000-key
// store — written, synchronized into the void and left quiescent. What a
// large engine amortizes a small one pays in full: key chunks of a fixed
// 64 KB, or records by the thousand, would cost such a store 500 bytes a
// key, and a slice that doubles costs it 20 — and so would a side table of
// buffers kept at the size of the burst that filled it. The string-keyed
// index read 317 here (a map that held every key of a shard as active
// stays that size); the key record table read 198 with an engine object per
// key, 149 with the state in the record, 129 with one-entry states one
// small object and map fields' keys shared with their records.
func TestPerObjectHeapPerKeySmallShards(t *testing.T) {
	const shards, perShard, limit = 64, 312, 134
	before := heapAlloc()
	engines := make([]protocol.Engine, shards)
	f := protocol.NewPerObject(protocol.NewDeltaBPRR(), storeObjType)
	for i := range engines {
		engines[i] = f(protocol.Config{ID: "r0", Neighbors: []string{"r1"}, Nodes: []string{"r0", "r1"}})
	}
	for i := 0; i < shards*perShard; i++ {
		engines[i%shards].LocalOp(storeOp(i))
	}
	for _, e := range engines {
		e.Sync(func(string, protocol.Msg) {})
		e.(protocol.KeyedEngine).Scan("", func(string, lattice.State) bool { return true })
	}
	perKey := float64(heapAlloc()-before) / (shards * perShard)
	t.Logf("%.0f heap bytes per key", perKey)
	if perKey > limit {
		t.Errorf("%.0f heap bytes per key in %d engines of %d keys, want ≤ %d", perKey, shards, perShard, limit)
	}
	runtime.KeepAlive(engines)
}
