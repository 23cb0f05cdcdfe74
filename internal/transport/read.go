package transport

import (
	"container/heap"

	"crdtsync/internal/lattice"
)

// Query visits every object of one shard under that shard's lock, in
// sorted key order, without cloning; it never waits for a pass or a write
// to another shard: fn receives each object's live state.
// It is the zero-allocation bulk read — Get clones a whole object per
// call, Query hands out len(shard) states for free — at the price of a
// narrower contract: fn must not mutate the state, must not retain it
// past the callback, and must not call back into the store (the shard
// lock is held). Returning false stops the visit. Out-of-range shard
// indices visit nothing; NumShards bounds the valid range.
func (s *Store) Query(shard int, fn func(key string, st lattice.State) bool) {
	if shard < 0 || shard >= len(s.shards) {
		return
	}
	sh := s.shards[shard]
	sh.mu.Lock() // Scan settles the key order
	defer sh.mu.Unlock()
	sh.ks.Scan("", fn)
}

// View runs fn on one object's live state under its shard's read lock and
// reports whether the key exists. It is the single-key form of Query,
// with the same zero-clone contract: fn must not mutate or retain the
// state and must not call back into the store.
func (s *Store) View(key string, fn func(st lattice.State)) bool {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.ks.ObjectState(key)
	if st == nil {
		return false
	}
	fn(st)
	return true
}

// Scan visits every object whose key starts with prefix, across all
// shards, in globally sorted key order — deterministic regardless of the
// shard count or hash layout. The matching objects are collected first
// with a bounded lock hold per shard (each shard's ordered keys are
// range-searched, not walked) and each shard's come out in order, so the
// global order is a merge of the shards' runs, not a sort. Then each
// object is visited under its own shard lock, so no lock is held across fn
// calls on different shards and a long scan never freezes a shard for its
// whole duration. Consequently Scan is not a snapshot: objects mutated
// between collection and visit are seen in their newer state, and fn
// observes live states under the same zero-clone contract as Query.
// Returning false stops the scan.
func (s *Store) Scan(prefix string, fn func(key string, st lattice.State) bool) {
	m := scanMerge{runs: make([]scanRun, 0, len(s.shards))}
	for _, sh := range s.shards {
		lo := len(m.objs)
		sh.mu.Lock()
		sh.ks.Scan(prefix, func(k string, st lattice.State) bool {
			m.objs = append(m.objs, keyState{k, st})
			return true
		})
		sh.mu.Unlock()
		if hi := len(m.objs); hi > lo {
			m.runs = append(m.runs, scanRun{lo, hi, sh})
		}
	}
	for heap.Init(&m); len(m.runs) > 0; {
		r := &m.runs[0]
		o := m.objs[r.lo]
		r.sh.mu.RLock()
		ok := fn(o.key, o.st)
		r.sh.mu.RUnlock()
		if !ok {
			return
		}
		if r.lo++; r.lo == r.hi {
			heap.Pop(&m)
		} else {
			heap.Fix(&m, 0)
		}
	}
}

// scanRun is what is left of one shard's share of a Scan: objs[lo:hi],
// ascending by key.
type scanRun struct {
	lo, hi int
	sh     *shard
}

// scanMerge orders the runs of a Scan by their next key (container/heap).
type scanMerge struct {
	objs []keyState
	runs []scanRun
}

func (m *scanMerge) Len() int           { return len(m.runs) }
func (m *scanMerge) Less(i, j int) bool { return m.objs[m.runs[i].lo].key < m.objs[m.runs[j].lo].key }
func (m *scanMerge) Swap(i, j int)      { m.runs[i], m.runs[j] = m.runs[j], m.runs[i] }
func (m *scanMerge) Push(any)           {} // the runs are all there before Init
func (m *scanMerge) Pop() any           { m.runs = m.runs[:len(m.runs)-1]; return nil }
