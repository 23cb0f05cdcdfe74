package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdtsync/internal/workload"
)

// writeFrame writes one frame as a peer's writer does.
func writeFrame(w io.Writer, from string, msg []byte) error {
	return new(frameWriter).write(w, from, msg)
}

// readFrame parses one frame into a fresh buffer.
func readFrame(r io.Reader) (from string, msg []byte, err error) {
	var buf []byte
	f, msg, err := readFrameInto(r, &buf)
	return string(f), msg, err
}

// TestFrameRoundTrip: a frame that names its sender, and one that does
// not, cost on the socket what the store's accounting says (4 + 2 bytes,
// and the id), and read back as written.
func TestFrameRoundTrip(t *testing.T) {
	for _, from := range []string{"node-7", ""} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, from, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if got, want := buf.Len(), frameHeaderBytes+len(from)+len("payload"); got != want {
			t.Errorf("from %q: %d bytes written, want %d", from, got, want)
		}
		got, msg, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != from || string(msg) != "payload" {
			t.Errorf("got (%q, %q), want (%q, payload)", got, msg, from)
		}
	}
}

// TestReadFrameAllocatesNothing: a connection's read loop reads frame after
// frame into its one buffer without an allocation, the sender id included.
func TestReadFrameAllocatesNothing(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 200; i++ {
		writeFrame(&stream, "s-00", []byte("hello"))
		writeFrame(&stream, "", []byte("payload"))
	}
	r := bytes.NewReader(stream.Bytes())
	buf := make([]byte, 64)
	allocs := testing.AllocsPerRun(100, func() {
		for k := 0; k < 2; k++ {
			if _, _, err := readFrameInto(r, &buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("reading a frame allocates %.1f times", allocs/2)
	}
}

// TestWriteFrameAllocatesNothing: a peer's writer writes a frame on TCP,
// one writev of header and message, without an allocation: the header and
// the buffer list are the pipeline's own, not each call's.
func TestWriteFrameAllocatesNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	read := make(chan int64, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			read <- 0
			return
		}
		defer c.Close()
		n, _ := io.Copy(io.Discard, c)
		read <- n
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pc := &peerConn{}
	msg := bytes.Repeat([]byte{7}, 60)
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		if err := pc.fw.write(conn, "", msg); err != nil {
			t.Fatal(err)
		}
	})
	conn.Close()
	if allocs != 0 {
		t.Errorf("writing a 60-byte frame allocates %.1f times", allocs)
	}
	// AllocsPerRun runs the function once more than it counts.
	if got, want := <-read, int64((runs+1)*(frameHeaderBytes+len(msg))); got != want {
		t.Errorf("the socket carried %d bytes, want %d", got, want)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrameBytes+1)
	_, _, err := readFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	// Header promises 100 bytes; only 10 arrive.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.Write(make([]byte, 10))
	if _, _, err := readFrame(&buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestReadFrameBadSenderLength(t *testing.T) {
	// Body too short to hold the declared sender id length.
	for _, body := range [][]byte{
		{},            // no sender-length prefix at all
		{0},           // truncated prefix
		{0, 5, 'a'},   // claims 5 sender bytes, has 1
		{255, 255, 0}, // absurd sender length
	} {
		var buf bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		buf.Write(hdr[:])
		buf.Write(body)
		if _, _, err := readFrame(&buf); err == nil {
			t.Errorf("body %v: want error, got nil", body)
		}
	}
}

// TestPeerNetWritesFramesAsHanded: the write pipeline ships each frame
// transmit was handed as one transport frame, in order and byte for byte —
// the backlog that queued up while the reader stalled included. The bytes
// are arbitrary: the pipeline reads no frame format.
func TestPeerNetWritesFramesAsHanded(t *testing.T) {
	const n = 16
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	local, remote := net.Pipe()
	defer remote.Close()
	dial := func(string, string) (net.Conn, error) { return local, nil }
	p := newPeerNet("a", map[string]string{"b": "pipe"}, ln, dial, queueConfig{})
	p.start(func(string, *uint32, []byte) error { return nil }, nil, nil)
	defer p.close()
	var sent [][]byte
	for i := 0; i < n; i++ {
		f := bytes.Repeat([]byte{byte(i)}, 1+i*7)
		sent = append(sent, f)
		if err := p.transmit("b", f); err != nil {
			t.Fatal(err)
		}
	}
	// The writer blocks on the first frame until the pipe is read; the rest
	// wait in the queue.
	eventually(t, 5*time.Second, "the backlog to queue behind the first frame", func() bool {
		return p.peerStats()["b"].Queued == n-1
	})
	var buf []byte
	for i, want := range sent {
		from, got, err := readFrameInto(remote, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(from) != 0 || !bytes.Equal(got, want) {
			t.Fatalf("frame %d from %q: % x, want % x from nobody (no hello named the sender)", i, from, got, want)
		}
	}
	if ps := p.peerStats()["b"]; ps.Enqueued != n || ps.Dropped != 0 || ps.Queued != 0 {
		t.Errorf("pipeline: %+v, want %d frames enqueued and none dropped", ps, n)
	}
}

func TestTransmitToUnknownPeerIsDropped(t *testing.T) {
	// Transmitting to a peer id that is not configured must fail cleanly
	// rather than panicking or blocking; the store drops the frame.
	// There is no write pipeline for an unknown peer — pipelines are
	// fixed at construction.
	p := newPeerNet("a", map[string]string{}, nil, nil, queueConfig{})
	if err := p.transmit("stranger", []byte("x")); err == nil {
		t.Error("transmit to unknown peer should fail")
	}
	if got := len(p.peerStats()); got != 0 {
		t.Errorf("peer pipelines = %d, want 0", got)
	}
}

// lateListener hands out its first connection as any listener would and
// its second only once peerNet.close has begun closing the connections it
// accepted: a connection accepted before the listener closed but entered
// after that pass.
type lateListener struct {
	early, late net.Conn
	calls       int           // Accept runs on the accept loop alone
	entered     chan struct{} // the second Accept began: early is entered
	swept       chan struct{} // close began closing accepted connections
	closed      chan struct{}
	closeOnce   sync.Once
}

func (l *lateListener) Accept() (net.Conn, error) {
	switch l.calls++; l.calls {
	case 1:
		return l.early, nil
	case 2:
		close(l.entered)
		<-l.swept
		return l.late, nil
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *lateListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

func (l *lateListener) Addr() net.Addr { return l.early.LocalAddr() }

// sweptConn reports its first Close on swept.
type sweptConn struct {
	net.Conn
	once  *sync.Once
	swept chan struct{}
}

func (c sweptConn) Close() error {
	c.once.Do(func() { close(c.swept) })
	return c.Conn.Close()
}

// TestCloseClosesALateAcceptedConnection: a connection the listener
// hands over while close is closing the accepted ones is closed by the
// accept loop, so Close returns instead of waiting on its reader for good.
func TestCloseClosesALateAcceptedConnection(t *testing.T) {
	early, earlyPeer := net.Pipe()
	late, latePeer := net.Pipe()
	defer earlyPeer.Close()
	defer latePeer.Close() // frees the reader a failed run leaves parked
	swept := make(chan struct{})
	ln := &lateListener{
		early:   sweptConn{early, new(sync.Once), swept},
		late:    late,
		entered: make(chan struct{}),
		swept:   swept,
		closed:  make(chan struct{}),
	}
	p := newPeerNet("a", nil, ln, nil, queueConfig{})
	p.start(func(string, *uint32, []byte) error { return nil }, nil, nil)
	<-ln.entered
	done := make(chan struct{})
	go func() {
		p.close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * drainTimeout):
		t.Fatal("Close did not return: the late connection's reader still waits")
	}
	if _, err := latePeer.Read(make([]byte, 1)); err == nil {
		t.Error("the late connection is still open after Close")
	}
}

// countingConn counts the bytes its writes put on the socket.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// TestWireBytesAreSocketBytes: what Stats().WireBytes counts is what the
// sockets carry — the envelope included, the sender id on hellos alone —
// less the frames a pipeline dropped, over a lossless acked mesh, from its
// first hello to its last acknowledgement.
func TestWireBytesAreSocketBytes(t *testing.T) {
	const keys = 200
	var written atomic.Int64
	stores, err := LoopbackClusterWith(3, StoreConfig{
		ID:        "w",
		Shards:    8,
		Engine:    EngineAcked,
		ObjType:   func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery: time.Hour, // ticked by hand: no refresh, and no acknowledgement held
	}, func(_ int, _ string, cfg *StoreConfig) {
		cfg.Dial = func(id, addr string) (net.Conn, error) {
			c, err := defaultDial(id, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: c, n: &written}, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		stores[i%3].Update(workload.Add(fmt.Sprintf("k%03d", i), "x"))
	}
	for _, st := range stores {
		st.SyncNow()
	}
	if err := WaitConverged(stores, keys, 30*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	// What a δ-group's receiver forwards, and what is sent again, leaves on
	// a tick.
	drained := func() bool {
		for _, st := range stores {
			for _, ps := range st.Stats().Peers {
				if ps.InFlight != 0 || ps.Queued != 0 {
					return false
				}
			}
			if st.Memory().BufferBytes != 0 {
				return false
			}
		}
		return true
	}
	eventually(t, 10*time.Second, "every link to drain", func() bool {
		if drained() {
			return true
		}
		for _, st := range stores {
			st.SyncNow()
		}
		return false
	})
	for _, st := range stores {
		st.Close()
	}
	var total StoreStats
	for _, st := range stores {
		total.Add(st.Stats())
	}
	lost := 0
	for _, ps := range total.Peers {
		lost += ps.DroppedBytes + frameHeaderBytes*ps.Dropped // no hello is queued, so none is dropped
	}
	if got, want := int(written.Load()), total.WireBytes-lost; got != want || total.HelloFrames == 0 || total.AckFrames == 0 {
		t.Errorf("sockets carried %d bytes, Stats say %d (%d counted, %d of them dropped) over %d frames, %d hellos and %d acknowledgements alone",
			got, want, total.WireBytes, lost, total.Frames, total.HelloFrames, total.AckFrames)
	}
}
