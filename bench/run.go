package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"crdtsync"
)

// defaultSetups is how many times an untraced run sets the cluster up;
// setup_s is the median. The traced and the smoke run set up once.
const defaultSetups = 3

// Time-outs after which a wait counts as a failed operation.
const (
	convergeTimeout = 60 * time.Second
	probeTimeout    = 10 * time.Second
)

// The preload is paced, preloadChunk keys at a time, at a rate the
// workload's engine keeps up with. Written faster it goes out as a few
// frames of thousands of items, and the stores' pooled frame views keep
// that capacity and clear all of it on every later frame: the window would
// measure the preload's frame size (see README.md).
const preloadChunk = 20

// Reader pacing on the watch replica: one View every readEvery, one
// Scan of the counters every scanEvery.
const (
	readEvery = 2 * time.Millisecond
	scanEvery = time.Second
)

// probeRec is one probe as the writer saw it.
type probeRec struct {
	key                   int
	value                 uint64
	due, updStart, updEnd time.Time
}

// probeBoard passes probes from the writer to the watch consumer.
type probeBoard struct {
	mu      sync.Mutex
	probes  []probeRec  // indexed by probe number; filled by the writer
	seen    []time.Time // indexed by probe number; filled by the reader
	pending [][]int     // per probe key: unresolved probe numbers, oldest first
	counts  []uint64    // per probe key: probes issued so far
	open    int         // unresolved probes
	lagged  int         // Lagged watch events
}

func newProbeBoard(n int) *probeBoard {
	return &probeBoard{
		probes:  make([]probeRec, 0, n),
		seen:    make([]time.Time, n),
		pending: make([][]int, numProbeKeys),
		counts:  make([]uint64, numProbeKeys),
	}
}

// post registers a probe about to be written and returns its number.
func (b *probeBoard) post(key int, due, start time.Time) int {
	b.mu.Lock()
	b.counts[key]++
	n := len(b.probes)
	b.probes = append(b.probes, probeRec{key: key, value: b.counts[key], due: due, updStart: start})
	b.pending[key] = append(b.pending[key], n)
	b.open++
	b.mu.Unlock()
	return n
}

// resolve marks every pending probe of key that value covers as seen at t.
func (b *probeBoard) resolve(key int, value uint64, t time.Time) {
	b.mu.Lock()
	q := b.pending[key]
	for len(q) > 0 && b.probes[q[0]].value <= value {
		b.seen[q[0]] = t
		q = q[1:]
		b.open--
	}
	b.pending[key] = q
	b.mu.Unlock()
}

func (b *probeBoard) unresolved() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// reader is the second generator goroutine: it consumes the probe watch on
// the watch replica and issues the paced reads.
type reader struct {
	st     *crdtsync.Store
	board  *probeBoard
	keys   []string // View targets
	stop   chan struct{}
	done   chan struct{}
	viewUs []float64
	scanMs []float64
}

func startReader(st *crdtsync.Store, board *probeBoard, seed int64, s spec) *reader {
	rng := rand.New(rand.NewSource(streamSeed(seed, streamReads)))
	g := &generator{rng: rng, u: newUniverse(s.preload), replicas: numReplicas}
	r := &reader{st: st, board: board, stop: make(chan struct{}), done: make(chan struct{})}
	for i := 0; i < 1024; i++ {
		r.keys = append(r.keys, g.preloadOp(rng.Intn(s.preload)).key())
	}
	w := st.Watch(string(probeKeyPrefix))
	go r.loop(w)
	return r
}

func (r *reader) loop(w *crdtsync.Watcher) {
	defer close(r.done)
	defer w.Close()
	tick := time.NewTicker(readEvery)
	defer tick.Stop()
	perScan := int(scanEvery / readEvery)
	n := 0
	for {
		select {
		case <-r.stop:
			return
		case ev, ok := <-w.Events():
			if !ok {
				return
			}
			if ev.Lagged {
				r.board.mu.Lock()
				r.board.lagged++
				r.board.mu.Unlock()
				for k := 0; k < numProbeKeys; k++ {
					r.check(k)
				}
				continue
			}
			if k, ok := probeIndex(ev.Key); ok {
				r.check(k)
			}
		case <-tick.C:
			n++
			if n%perScan == 0 {
				t0 := time.Now()
				r.st.Scan(crdtsync.CounterPrefix, func(string, crdtsync.State) bool { return true })
				r.scanMs = append(r.scanMs, float64(time.Since(t0))/1e6)
				continue
			}
			key := r.keys[n%len(r.keys)]
			t0 := time.Now()
			r.st.View(key, func(crdtsync.State) {})
			r.viewUs = append(r.viewUs, float64(time.Since(t0))/1e3)
		}
	}
}

// check reads probe counter k and resolves what its value covers.
func (r *reader) check(k int) {
	v := r.st.Counter(probeName(k)).Value()
	r.board.resolve(k, v, time.Now())
}

func (r *reader) close() {
	close(r.stop)
	<-r.done
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// result is everything one run of one workload measured. An open loop's
// window is split over the run's set-up rounds — each freshly opened
// cluster carries its share — and the parts' readings are pooled here.
type result struct {
	spec   spec
	seed   int64
	traced bool

	setups  []float64 // seconds, one per set-up round
	updates int       // all updates issued, the restart phase's included
	reads   int
	// windowUpdates is the updates of the timed windows; windowKeys the
	// objects per replica at the end of the last one, which is when the
	// heap is read.
	windowUpdates int
	windowKeys    int

	window    time.Duration  // Σ parts: first update → all digests equal
	stats     crdtsync.Stats // cluster counters over the same
	heapAlloc uint64

	slices  []slice
	visible []float64 // ms, probe due time → seen
	probes  int       // probes issued
	genLate []float64 // ms, paced updates only
	viewUs  []float64
	scanMs  []float64

	recovery     time.Duration
	recoveryWire int
	staleBytes   int // canonical bytes of the objects that differed at restart
	staleKeys    int

	failed    int
	failures  []string
	oracleBad int

	// Filled by the traced run only, which has one part.
	trace         *traceData
	wire          wireClasses // bytes on the sockets over the window, by class
	frames        [][]byte    // first data frames of the window, for the replay
	queueDepth    []float64
	bufferBytes   int
	metadataBytes int
	replay        map[string]float64
	simRatio      float64
	ref           *result // the untraced reference phase of the same invocation
}

func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// setup opens a cluster, preloads the universe and waits for the first
// convergence.
func setup(s spec, seed int64, traced bool, snapDir string) (*cluster, error) {
	c, err := openCluster(s, seed, traced, snapDir)
	if err != nil {
		return nil, err
	}
	g := preloadGen(seed, s)
	t0 := time.Now()
	for i := 0; i < s.preload; i++ {
		if i%preloadChunk == 0 {
			if d := time.Until(t0.Add(time.Duration(i) * time.Second / time.Duration(s.preloadPerSec))); d > 0 {
				time.Sleep(d)
			}
		}
		g.preloadOp(i).issue(c.stores)
	}
	if err := waitConverged(c.stores, s.preload, convergeTimeout, setupPoll); err != nil {
		c.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return c, nil
}

// runWorkload runs the setups set-up rounds. Every round of an open loop is
// followed by its share of the timed window on the cluster just set up: a
// run then sees several draws of what is fixed for a cluster's lifetime —
// the replicas' tick phases against each other, the frame sizes its pooled
// buffers grew to — and reports their pooled result. A closed loop is one
// growing store, so only the last round's cluster is measured. The last
// cluster also carries the heap reading and the restart phase.
func runWorkload(s spec, seed int64, seconds float64, setups int, traced bool, outDir string) (*result, error) {
	r := &result{spec: s, seed: seed, traced: traced}
	var snapDir string
	if s.restart {
		dir, err := os.MkdirTemp(outDir, "snap-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		snapDir = dir
	}
	share := seconds
	if s.openLoop {
		share = seconds / float64(setups)
	}
	for i := 0; i < setups; i++ {
		if snapDir != "" {
			clearDir(snapDir)
		}
		t0 := time.Now()
		c, err := setup(s, seed, traced, snapDir)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		last := i == setups-1
		if s.openLoop || last {
			err = r.part(c, part{seed: seed*int64(setups) + int64(i), seconds: share, last: last}, outDir)
		}
		c.close()
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// part is one cluster's share of a run.
type part struct {
	seed    int64 // of the window's inputs; the preload always uses the run's
	seconds float64
	last    bool
}

// part measures one timed window on c, checks the oracle, and on the last
// part reads the heap and runs the restart phase.
func (r *result) part(c *cluster, p part, outDir string) error {
	s := r.spec
	n := s.updates(p.seconds)
	nProbes := quietProbes
	if s.openLoop {
		nProbes = n / s.probeEvery
	}
	board := newProbeBoard(nProbes)
	keys := s.preload
	if s.freshKeys {
		keys += n
		if s.openLoop {
			keys -= nProbes // a probe takes the place of an update
		}
	}
	rd := startReader(c.stores[watchReplica], board, p.seed, s)
	if c.fault != nil {
		c.fault.SetDropRate(s.dropRate)
	}
	if s.restart && p.last {
		// The snapshot is taken mid-window from its own goroutine so the
		// paced writer is not held up by it.
		snap := time.AfterFunc(time.Duration(p.seconds/2*float64(time.Second)), func() {
			if err := c.stores[watchReplica].SnapshotNow(); err != nil {
				fmt.Fprintln(os.Stderr, "bench: snapshot:", err)
			}
		})
		defer snap.Stop()
	}

	// Every window starts from a collected heap and emptied sync.Pools
	// (two collections drop a pool's contents). What set-up left behind
	// would otherwise set the collector's pace, and the stores' pooled
	// frame views would keep the capacity of the largest frame set-up ever
	// produced and clear all of it on every frame of the window — both
	// differently in every run.
	runtime.GC()
	runtime.GC()
	var smp *sampler
	if r.traced {
		c.tap.beginWindow()
		smp = startSampler(c, r)
	}
	before := c.stats()
	t0 := time.Now()
	if s.openLoop {
		keys += min(nProbes, numProbeKeys)
		r.paced(c, board, windowGen(p.seed, s), n, s.ratePerSec, t0, true)
		if r.traced {
			sampleMemory(c, r)
		}
		if err := waitConverged(c.stores, keys, convergeTimeout, windowPoll); err != nil {
			r.fail(1, "window: %v", err)
		}
	} else {
		r.rounds(c, windowGen(p.seed, s), n)
	}
	r.window += time.Since(t0)
	r.stats.Add(statsDelta(c.stats(), before))
	r.updates += n
	r.windowUpdates += n
	if r.traced {
		smp.close()
		r.wire, r.frames = c.tap.endWindow()
	}
	if !s.openLoop {
		// A closed loop's probes come after it, on the store it filled:
		// inside the ingest a probe's latency is the backlog ahead of it,
		// which says how many keys the round had, not how the path behaves.
		keys += numProbeKeys
		r.paced(c, board, probeGen(), quietProbes, quietProbesPerSec, time.Now(), false)
	}

	deadline := time.Now().Add(probeTimeout)
	for board.unresolved() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	rd.close()
	r.viewUs = append(r.viewUs, rd.viewUs...)
	r.scanMs = append(r.scanMs, rd.scanMs...)
	r.reads += len(rd.viewUs) + len(rd.scanMs)
	r.probes += len(board.probes)
	for i, pr := range board.probes {
		if seen := board.seen[i]; !seen.IsZero() {
			r.visible = append(r.visible, float64(seen.Sub(pr.due))/1e6)
		}
	}
	r.fail(board.unresolved(), "%d probes not visible %v after the window", board.unresolved(), probeTimeout)
	r.fail(board.lagged, "%d lagged watch events", board.lagged)
	if r.traced {
		r.trace = collectTrace(c, board, t0)
	}
	if p.last {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.heapAlloc, r.windowKeys = ms.HeapAlloc, keys
		if s.restart {
			var err error
			if keys, err = r.restartPhase(c, keys, outDir); err != nil {
				return err
			}
		}
	}
	r.checkOracle(c, p, n, keys)
	return nil
}

// slice is one piece of the timed window: a second of an open loop's
// schedule, or one round of a closed loop.
type slice struct {
	Updates int           `json:"updates"`
	Wall    time.Duration `json:"wall_ns"`
	CPU     time.Duration `json:"cpu_ns"`
	Wire    int           `json:"wire_bytes"`
}

// mark is a cumulative reading at a slice boundary.
type mark struct {
	updates int
	at      time.Time
	cpu     time.Duration
	wire    int
}

func takeMark(c *cluster, updates int) mark {
	return mark{updates: updates, at: time.Now(), cpu: cpuTime(), wire: c.stats().WireBytes}
}

func (r *result) addSlice(from, to mark) {
	r.slices = append(r.slices, slice{to.updates - from.updates, to.at.Sub(from.at), to.cpu - from.cpu, to.wire - from.wire})
}

// sumSlices sums f over the slices.
func (r *result) sumSlices(f func(slice) float64) float64 {
	sum := 0.0
	for _, sl := range r.slices {
		sum += f(sl)
	}
	return sum
}

func sliceUpdates(s slice) float64 { return float64(s.Updates) }

// Closed loops ingest in rounds and then measure probe latency with
// quietProbes paced probes on the filled store.
const (
	quietProbes       = 1000
	quietProbesPerSec = 500
	sliceEvery        = time.Second
)

// rounds ingests n fresh keys back to back in the workload's rounds, each
// timed from its first update to convergence.
func (r *result) rounds(c *cluster, g *generator, n int) {
	done, rounds := 0, r.spec.rounds
	for k := 1; k <= rounds; k++ {
		upto := n * k / rounds
		from := takeMark(c, done)
		for ; done < upto; done++ {
			g.next().issue(c.stores)
		}
		if r.traced && k == rounds {
			sampleMemory(c, r)
		}
		if err := waitConverged(c.stores, r.spec.preload+done, convergeTimeout, roundPoll); err != nil {
			r.fail(1, "round %d: %v", k, err)
		}
		r.addSlice(from, takeMark(c, done))
	}
}

// paced issues n updates from this goroutine on an open-loop schedule
// starting at t0: a seeded Poisson process (independent users) — evenly
// spaced updates would meet the stores' sync tick at a handful of fixed
// phases, and the probe latencies with them. With slices set, every
// sliceEvery of schedule closes a slice.
func (r *result) paced(c *cluster, board *probeBoard, g *generator, n, perSec int, t0 time.Time, slices bool) {
	arrivals := rand.New(rand.NewSource(streamSeed(r.seed, streamArrivals)))
	mean := float64(time.Second) / float64(perSec)
	due := t0
	last, next := takeMark(c, 0), t0.Add(sliceEvery)
	defer func() {
		// The schedule's tail becomes a slice when it is long enough to
		// stand beside the others, or when it is all there is.
		if m := takeMark(c, n); slices && (m.at.Sub(last.at) >= sliceEvery/2 || last.updates == 0) {
			r.addSlice(last, m)
		}
	}()
	for j := 0; j < n; j++ {
		o := g.next()
		due = due.Add(time.Duration(arrivals.ExpFloat64() * mean))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if slices && !due.Before(next) {
			m := takeMark(c, j)
			r.addSlice(last, m)
			last, next = m, next.Add(sliceEvery)
		}
		now := time.Now()
		r.genLate = append(r.genLate, float64(now.Sub(due))/1e6)
		if o.kind != opProbe {
			o.issue(c.stores)
			continue
		}
		p := board.post(o.probe, due, now)
		o.issue(c.stores)
		if r.traced {
			// Written after post: only the writer touches updEnd until
			// the reader goroutine has been joined.
			board.probes[p].updEnd = time.Now()
		}
	}
}

// restartPhase crashes the watch replica, lets the others move on, and
// times its recovery from the snapshot taken mid-window. It returns the
// objects per replica afterwards.
func (r *result) restartPhase(c *cluster, keys int, outDir string) (int, error) {
	s := r.spec
	down := c.stores[watchReplica]
	c.setStore(watchReplica, nil)
	down.Close()

	g := restartGen(r.seed, s)
	for i := 0; i < s.restartKeys; i++ {
		g.next().issue(c.stores)
	}
	r.updates += s.restartKeys
	keys += s.restartKeys
	c.fault.SetDropRate(0)
	up := c.stores[:watchReplica]
	if err := waitConverged(up, keys, convergeTimeout, windowPoll); err != nil {
		r.fail(1, "survivors: %v", err)
	}
	var err error
	if r.staleKeys, r.staleBytes, err = staleAtRestart(c.snapDir, outDir, up[0]); err != nil {
		return 0, err
	}

	before := c.stats()
	if err := c.reopen(watchReplica); err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	t0 := time.Now()
	if err := waitConverged(c.stores, keys, convergeTimeout, recoveryPoll); err != nil {
		r.fail(1, "recovery: %v", err)
	}
	r.recovery = time.Since(t0)
	r.recoveryWire = c.stats().WireBytes - before.WireBytes
	return keys, nil
}

// Poll periods of the convergence waits: how finely each timed interval
// is resolved, against what the polling itself costs (a Digest call
// re-encodes every shard touched since the last one).
const (
	setupPoll    = 10 * time.Millisecond
	roundPoll    = 10 * time.Millisecond
	windowPoll   = 50 * time.Millisecond
	recoveryPoll = 5 * time.Millisecond
)

// waitConverged polls until every store holds keys objects and all digests
// agree. Key counts are compared first; digests only once they match.
func waitConverged(stores []*crdtsync.Store, keys int, timeout, poll time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		agree := true
		for _, st := range stores {
			if st.NumKeys() != keys {
				agree = false
				break
			}
		}
		if agree && digestsEqual(stores) {
			return nil
		}
		if time.Now().After(deadline) {
			// The library's own wait names each store's keys, digest and
			// queue health in its error.
			return crdtsync.WaitConverged(stores, keys, 0, nil)
		}
		time.Sleep(poll)
	}
}

// clearDir empties dir.
func clearDir(dir string) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		os.RemoveAll(filepath.Join(dir, e.Name()))
	}
}
