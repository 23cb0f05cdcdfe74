package transport

import (
	"sort"
	"strings"
	"sync"
)

// defaultWatchBuffer is the per-watcher pending-key bound used when
// Watch is called with buf <= 0.
const defaultWatchBuffer = 256

// WatchEvent is one change notification: the named object was (possibly)
// modified since the previous event for that key. Notifications are
// conservative — a delivery that turns out to be redundant still
// notifies — and coalesced: any number of changes to one key between two
// reads collapse into a single event.
type WatchEvent struct {
	// Key names the changed object.
	Key string
	// Lagged marks the first event delivered after the watcher's pending
	// buffer overflowed: at least one change notification was dropped
	// since the previous event, so the consumer may have missed keys and
	// should rescan its prefix (Scan) if it needs completeness. Dropped
	// notifications are also counted in StoreStats.WatchDropped.
	Lagged bool
}

// Watcher delivers change notifications for one key prefix, decoupled
// from the store's hot paths by a bounded, per-key-coalescing buffer:
// Update and frame delivery only flip a key in the watcher's pending set
// (O(1), never blocking), and a dedicated pump goroutine turns pending
// keys into WatchEvents on the Events channel in sorted-key batches. A
// consumer that stops reading therefore can never stall the sync loop —
// once its pending set is full, further notifications are dropped,
// counted, and surfaced as a Lagged mark on the next event it does read.
type Watcher struct {
	store  *Store
	prefix string
	cap    int

	mu      sync.Mutex
	pending map[string]struct{}
	lagged  bool

	notify    chan struct{} // capacity 1: "pending is non-empty"
	done      chan struct{}
	out       chan WatchEvent
	closeOnce sync.Once
}

// Watch registers a watcher for every key starting with prefix (the empty
// prefix watches the whole keyspace). buf bounds the number of distinct
// keys the watcher can hold pending between reads (<= 0 means the default
// of 256); a change arriving while the buffer is full is dropped and the
// next delivered event carries the Lagged mark. Close the watcher to
// release it; the store's Close closes every remaining watcher, which
// closes their Events channels. Watch on a closed (or closing) store
// returns an already-closed watcher: its Events channel is closed, so a
// consumer ranging over it stops immediately.
func (s *Store) Watch(prefix string, buf int) *Watcher {
	if buf <= 0 {
		buf = defaultWatchBuffer
	}
	w := &Watcher{
		store:   s,
		prefix:  prefix,
		cap:     buf,
		pending: make(map[string]struct{}),
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
		out:     make(chan WatchEvent, 16),
	}
	// Registration and the stopping check share the critical section that
	// Close's closeWatchers snapshot uses, so every watcher is either in
	// that snapshot (and gets closed by it) or observes stopping closed
	// here — a pump goroutine can never outlive Close's wg.Wait, and
	// wg.Add never races a Wait that could have seen a zero counter.
	s.watchMu.Lock()
	select {
	case <-s.stopping:
		s.watchMu.Unlock()
		w.closeOnce.Do(func() { close(w.done) })
		close(w.out) // the pump, which normally closes out, never starts
		return w
	default:
	}
	s.watchers = append(s.watchers, w)
	s.watcherCount.Store(int32(len(s.watchers)))
	s.wg.Add(1)
	s.watchMu.Unlock()
	go w.pump()
	return w
}

// Events returns the channel the watcher's notifications arrive on. It is
// closed when the watcher (or its store) is closed.
func (w *Watcher) Events() <-chan WatchEvent { return w.out }

// Close unregisters the watcher and closes its Events channel. It is
// idempotent and safe to call concurrently with deliveries.
func (w *Watcher) Close() {
	w.closeOnce.Do(func() {
		s := w.store
		s.watchMu.Lock()
		for i, o := range s.watchers {
			if o == w {
				s.watchers = append(s.watchers[:i], s.watchers[i+1:]...)
				break
			}
		}
		s.watcherCount.Store(int32(len(s.watchers)))
		s.watchMu.Unlock()
		close(w.done)
	})
}

// offer records one change notification: coalesced if the key is already
// pending, dropped (and marked lagged) if the pending set is full. It
// runs on update and delivery paths and never blocks.
func (w *Watcher) offer(key string) {
	if !strings.HasPrefix(key, w.prefix) {
		return
	}
	dropped := false
	w.mu.Lock()
	if _, ok := w.pending[key]; !ok {
		if len(w.pending) >= w.cap {
			w.lagged = true
			dropped = true
		} else {
			w.pending[key] = struct{}{}
		}
	}
	w.mu.Unlock()
	if dropped {
		w.store.statsMu.Lock()
		w.store.stats.WatchDropped++
		w.store.statsMu.Unlock()
		return
	}
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// pump drains the pending set into the Events channel, batch by batch,
// in sorted key order. Blocking on a slow consumer is its job — the
// pending set keeps absorbing (and eventually dropping) notifications
// upstream while it waits.
func (w *Watcher) pump() {
	defer w.store.wg.Done()
	defer close(w.out)
	for {
		select {
		case <-w.done:
			return
		case <-w.notify:
		}
		for {
			w.mu.Lock()
			if len(w.pending) == 0 {
				w.mu.Unlock()
				break
			}
			keys := make([]string, 0, len(w.pending))
			for k := range w.pending {
				keys = append(keys, k)
			}
			w.pending = make(map[string]struct{})
			lagged := w.lagged
			w.lagged = false
			w.mu.Unlock()
			sort.Strings(keys)
			for _, k := range keys {
				select {
				case w.out <- WatchEvent{Key: k, Lagged: lagged}:
					lagged = false
				case <-w.done:
					return
				}
			}
		}
	}
}

// hasWatchers reports whether any watcher is registered. It is a single
// atomic load — the hot delivery and update paths check it before doing
// any notification work (in particular before materializing item keys
// as strings), so a store nobody watches pays nothing per item.
func (c *core) hasWatchers() bool {
	return c.watcherCount.Load() > 0
}

// notifyWatchers offers one changed key to every registered watcher.
func (c *core) notifyWatchers(key string) {
	c.watchMu.RLock()
	for _, w := range c.watchers {
		w.offer(key)
	}
	c.watchMu.RUnlock()
}

// closeWatchers closes every watcher still registered (Store.Close).
func (s *Store) closeWatchers() {
	s.watchMu.RLock()
	open := append([]*Watcher(nil), s.watchers...)
	s.watchMu.RUnlock()
	for _, w := range open {
		w.Close()
	}
}
