package transport_test

import (
	"fmt"
	"testing"
	"time"

	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// TestWatchDeliversCoalesced checks the basic contract: a watcher sees
// every locally updated key under its prefix exactly via (coalesced)
// events, other prefixes stay invisible, and Close ends the stream.
func TestWatchDeliversCoalesced(t *testing.T) {
	st := startSoloStore(t, 8)
	w := st.Watch("user/", 0)

	st.Update(workload.Op{Kind: workload.KindInc, Key: "user/alice", N: 1})
	st.Update(workload.Op{Kind: workload.KindInc, Key: "item/sword", N: 1}) // wrong prefix
	st.Update(workload.Op{Kind: workload.KindInc, Key: "user/bob", N: 1})
	st.Update(workload.Op{Kind: workload.KindInc, Key: "user/alice", N: 1}) // may coalesce

	seen := map[string]int{}
	deadline := time.After(5 * time.Second)
	for len(seen) < 2 {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatal("Events closed early")
			}
			if ev.Lagged {
				t.Fatalf("unexpected Lagged mark on %q", ev.Key)
			}
			seen[ev.Key]++
		case <-deadline:
			t.Fatalf("timed out waiting for events, saw %v", seen)
		}
	}
	if seen["user/alice"] == 0 || seen["user/bob"] == 0 || seen["item/sword"] != 0 {
		t.Fatalf("wrong event set: %v", seen)
	}
	w.Close()
	if _, ok := <-w.Events(); ok {
		// Draining any residual events until close is fine; just insist
		// the channel closes.
		for range w.Events() {
		}
	}
}

// TestWatchAcrossReplicas checks that remote changes arriving through
// frame delivery notify watchers too: a watcher on replica B sees keys
// updated on replica A.
func TestWatchAcrossReplicas(t *testing.T) {
	stores := startStoreCluster(t, 2, 8, transport.EngineDelta, 10*time.Millisecond)
	w := stores[1].Watch("key-", 0)
	const n = 20
	for i := 0; i < n; i++ {
		stores[0].Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("key-%04d", i), N: 1})
	}
	seen := map[string]bool{}
	deadline := time.After(10 * time.Second)
	for len(seen) < n {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatal("Events closed early")
			}
			seen[ev.Key] = true
		case <-deadline:
			t.Fatalf("timed out: watcher saw %d/%d remote keys", len(seen), n)
		}
	}
}

// TestWatchLaggedAndBounded is the churn battery: a watcher that never
// reads while updates hammer the store (1) never stalls updates or sync
// ticks, (2) drops notifications once its bounded buffer fills and counts
// them in Stats, and (3) delivers the Lagged mark on the first event the
// revived consumer reads.
func TestWatchLaggedAndBounded(t *testing.T) {
	st := startSoloStore(t, 8)
	const buf = 16
	w := st.Watch("", buf)

	// Stall the pump: fill the Events channel (cap 16) plus the batch the
	// pump is blocked sending, then keep writing distinct keys until the
	// pending set must overflow. Nobody reads w.Events() yet.
	const keys = 512
	start := time.Now()
	for i := 0; i < keys; i++ {
		st.Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("churn-%04d", i), N: 1})
	}
	updateDur := time.Since(start)

	// Updates against a wedged watcher must stay fast: the offer path is
	// a non-blocking map insert. 512 updates in multiple seconds would
	// mean the watcher is applying backpressure to the write path.
	if updateDur > 2*time.Second {
		t.Fatalf("512 updates took %s against a stalled watcher", updateDur)
	}

	// The sync loop must also stay responsive while the watcher is
	// wedged: a manual tick is bounded.
	tickStart := time.Now()
	st.SyncNow()
	if d := time.Since(tickStart); d > 2*time.Second {
		t.Fatalf("SyncNow took %s against a stalled watcher", d)
	}

	// With 512 distinct keys against a 16-key pending buffer (+16 channel
	// slots and one in-flight batch), notifications must have been
	// dropped and counted.
	waitFor(t, 5*time.Second, func() bool { return st.Stats().WatchDropped > 0 })
	dropped := st.Stats().WatchDropped
	if dropped == 0 {
		t.Fatal("no WatchDropped counted despite overflow")
	}

	// Revive the consumer: drain everything currently flowing. The
	// watcher must surface the drop as a Lagged mark, and the total
	// delivered+dropped must stay bounded (coalescing means "delivered"
	// counts distinct keys, not updates).
	sawLagged := false
	delivered := 0
	deadline := time.After(10 * time.Second)
drain:
	for {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				break drain
			}
			delivered++
			if ev.Lagged {
				sawLagged = true
			}
			if sawLagged && delivered > buf {
				break drain // lagged mark seen and stream keeps flowing; enough
			}
		case <-deadline:
			break drain
		}
	}
	if !sawLagged {
		t.Fatalf("consumer never saw Lagged mark (delivered %d events, %d dropped)", delivered, dropped)
	}
	if delivered == 0 {
		t.Fatal("no events delivered after revival")
	}
	w.Close()
}

// TestWatchAfterClose pins the shutdown contract: Watch on a closed
// store returns an already-closed watcher (Events closed, no leaked
// pump), and Watch racing Close never hangs Close.
func TestWatchAfterClose(t *testing.T) {
	st := startSoloStore(t, 4)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	w := st.Watch("", 0)
	select {
	case _, ok := <-w.Events():
		if ok {
			t.Fatal("event from a watcher on a closed store")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Events of a post-Close watcher not closed")
	}
	w.Close() // must stay idempotent on the dead watcher

	// Race Close against a storm of Watch calls: Close must return and
	// every watcher's Events channel must end up closed.
	st2 := startSoloStore(t, 4)
	watchers := make(chan *transport.Watcher, 4096)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				close(watchers)
				return
			default:
				watchers <- st2.Watch("", 4)
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- st2.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung while racing Watch")
	}
	close(stop)
	for w := range watchers {
		deadline := time.After(5 * time.Second)
		for open := true; open; {
			select {
			case _, ok := <-w.Events():
				open = ok // drain pre-close events; channel must close
			case <-deadline:
				t.Fatal("a raced watcher's Events never closed")
			}
		}
	}
}

// waitFor polls cond until it holds or the timeout elapses.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWatchChurnRace runs watchers, updates, scans and closes
// concurrently; its assertions are the race detector's.
func TestWatchChurnRace(t *testing.T) {
	st := startSoloStore(t, 8)
	stop := make(chan struct{})
	done := make(chan struct{}, 4)

	// Writer: hammers a rotating key window.
	go func() {
		defer func() { done <- struct{}{} }()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			st.Update(workload.Op{Kind: workload.KindInc, Key: fmt.Sprintf("race-%03d", i%100), N: 1})
			i++
		}
	}()
	// Reader: consumes one watcher.
	w := st.Watch("race-", 8)
	go func() {
		defer func() { done <- struct{}{} }()
		for {
			select {
			case <-stop:
				return
			case _, ok := <-w.Events():
				if !ok {
					return
				}
			}
		}
	}()
	// Churner: opens and closes short-lived watchers.
	go func() {
		defer func() { done <- struct{}{} }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ww := st.Watch("race-0", 4)
			time.Sleep(time.Millisecond)
			ww.Close()
		}
	}()
	// Ticker: keeps the sync loop churning manually too.
	go func() {
		defer func() { done <- struct{}{} }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st.SyncNow()
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	for i := 0; i < 4; i++ {
		<-done
	}
	w.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
