package crdtsync

import (
	"strings"

	"crdtsync/internal/crdt"
	"crdtsync/internal/lattice"
	"crdtsync/internal/workload"
)

// Counter is a typed handle on one grow-only counter object: a named,
// replicated counter whose increments from different replicas always
// sum, never conflict. Handles are cheap values — create them on the
// fly, copy them, share them across goroutines.
type Counter struct {
	st  *Store
	key string
}

// Counter returns the handle for the counter named name. The object is
// created lazily on the first Inc; reading a never-written counter
// yields 0.
func (s *Store) Counter(name string) Counter {
	return Counter{st: s, key: CounterPrefix + name}
}

// Key returns the counter's raw object key ("c/<name>"), as seen by
// Keys, Scan and Watch.
func (c Counter) Key() string { return c.key }

// Inc adds n to the counter. Inc(0) is a no-op: it neither creates the
// object nor dirties its shard.
func (c Counter) Inc(n uint64) {
	if n == 0 {
		return
	}
	c.st.s.Update(workload.Inc(c.key, n))
}

// Value returns the counter's current value: the sum of every replica's
// increments that have reached this store. It reads the live state under
// the shard lock without cloning.
func (c Counter) Value() uint64 {
	var v uint64
	c.st.View(c.key, func(st State) {
		if g, ok := st.(*crdt.GCounter); ok {
			v = g.Value()
		}
	})
	return v
}

// Set is a typed handle on one grow-only set object: replicas may add
// elements concurrently and converge to the union.
type Set struct {
	st  *Store
	key string
}

// Set returns the handle for the set named name. The object is created
// lazily on the first Add; a never-written set is empty.
func (s *Store) Set(name string) Set {
	return Set{st: s, key: SetPrefix + name}
}

// Key returns the set's raw object key ("s/<name>"), as seen by Keys,
// Scan and Watch.
func (s Set) Key() string { return s.key }

// Add inserts elem into the set (idempotent: re-adding a present element
// synchronizes for free).
func (s Set) Add(elem string) { s.st.s.Update(workload.Add(s.key, elem)) }

// Contains reports whether elem is in the set, reading the live state
// without cloning.
func (s Set) Contains(elem string) bool {
	found := false
	s.st.View(s.key, func(st State) {
		if g, ok := st.(*crdt.GSet); ok {
			found = g.Contains(elem)
		}
	})
	return found
}

// Elems returns the elements in sorted order.
func (s Set) Elems() []string {
	var out []string
	s.st.View(s.key, func(st State) {
		if g, ok := st.(*crdt.GSet); ok {
			out = g.Values()
		}
	})
	return out
}

// Len returns the number of elements, reading the live state without
// cloning.
func (s Set) Len() int {
	n := 0
	s.st.View(s.key, func(st State) {
		if g, ok := st.(*crdt.GSet); ok {
			n = g.Len()
		}
	})
	return n
}

// Map is a typed handle on one map of last-writer-wins registers.
// Each field is an independent object at "m/<name>/<field>": concurrent
// Puts to different fields of the same map share no δ-buffer or
// register version, and a map with a million fields costs
// a sync tick only what its dirty fields cost. Concurrent Puts to the
// same field resolve last-writer-wins (version, then writer id).
type Map struct {
	st     *Store
	prefix string
}

// Map returns the handle for the map named name. Fields are created
// lazily on their first Put.
func (s *Store) Map(name string) Map {
	return Map{st: s, prefix: MapPrefix + name + "/"}
}

// Prefix returns the map's raw key prefix ("m/<name>/"): its fields'
// object keys as seen by Keys, Scan and Watch.
func (m Map) Prefix() string { return m.prefix }

// Put writes value at field, superseding older writes to the same field
// on any replica (last-writer-wins).
func (m Map) Put(field, value string) {
	m.st.s.Update(workload.Put(m.prefix+field, value))
}

// Get returns the field's current value and whether the field has ever
// been written, reading the live state without cloning.
func (m Map) Get(field string) (string, bool) {
	key := m.prefix + field
	val, ok := "", false
	m.st.View(key, func(st State) {
		val, ok = registerValue(st, key)
	})
	return val, ok
}

// Fields returns the map's field names in sorted order.
func (m Map) Fields() []string {
	var out []string
	m.st.Scan(m.prefix, func(key string, _ State) bool {
		out = append(out, strings.TrimPrefix(key, m.prefix))
		return true
	})
	return out
}

// Range visits every field and its value in sorted field order without
// cloning, stopping early if fn returns false. The Scan contract
// applies: concurrent updates may be observed.
func (m Map) Range(fn func(field, value string) bool) {
	m.st.Scan(m.prefix, func(key string, st State) bool {
		val, ok := registerValue(st, key)
		if !ok {
			return true
		}
		return fn(strings.TrimPrefix(key, m.prefix), val)
	})
}

// Len returns the number of fields ever written.
func (m Map) Len() int {
	n := 0
	m.st.Scan(m.prefix, func(string, State) bool { n++; return true })
	return n
}

// registerValue extracts the LWW register payload a map field's object
// state carries at key, if any.
func registerValue(st State, key string) (string, bool) {
	mp, ok := st.(*lattice.Map)
	if !ok {
		return "", false
	}
	reg, ok := mp.Get(key).(*crdt.LWWRegister)
	if !ok {
		return "", false
	}
	return reg.Value(), true
}
