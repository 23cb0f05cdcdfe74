package transport_test

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
	"crdtsync/internal/topology"
	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// dialNode opens a raw TCP connection to a store's listener.
func dialNode(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	return conn
}

// expectDrop asserts the server closes the connection (read returns an
// error other than our deadline once our bytes are processed).
func expectDrop(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	_, err := conn.Read(one[:])
	if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Error("server kept the connection open, want drop")
	}
}

// TestUnknownEngineRefused: a StoreConfig whose Engine names neither
// EngineAcked nor EngineDelta is an error from StartStore and NewSim, not
// a panic.
func TestUnknownEngineRefused(t *testing.T) {
	cfg := transport.StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Engine:     7,
		ObjType:    func(string) workload.Datatype { return workload.GCounterType{} },
	}
	if s, err := transport.StartStore(cfg); err == nil {
		s.Close()
		t.Error("StartStore ran engine 7")
	} else if !strings.Contains(err.Error(), "unknown engine 7") {
		t.Errorf("StartStore: %v, want an unknown engine", err)
	}
	if _, err := transport.NewSim(topology.Full(2), cfg, 1); err == nil {
		t.Error("NewSim ran engine 7")
	} else if !strings.Contains(err.Error(), "unknown engine 7") {
		t.Errorf("NewSim: %v, want an unknown engine", err)
	}
}

func TestStoreDropsOversizedFrame(t *testing.T) {
	stores := startStoreCluster(t, 2, 4, transport.EngineDelta, 20*time.Millisecond)
	conn := openRaw(t, stores[0].Addr(), "raw", 4)
	defer conn.Close()
	// A length prefix beyond the 64 MiB cap must get the connection
	// dropped without the store allocating the claimed buffer.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	expectDrop(t, conn)
	// The store is still healthy: real traffic converges.
	stores[1].Update(workload.Op{Kind: workload.KindInc, Key: "alive", N: 1})
	waitStoresConverged(t, stores, 1, 5*time.Second)
}

func TestStoreDropsCorruptFrame(t *testing.T) {
	stores := startStoreCluster(t, 2, 4, transport.EngineDelta, 20*time.Millisecond)
	conn := openRaw(t, stores[0].Addr(), "zz", 4)
	defer conn.Close()
	// Well-framed garbage: valid length and no sender id, unparseable
	// message body (unknown codec tag).
	body := []byte{0, 0, 250, 1, 2, 3}
	frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	expectDrop(t, conn)
	stores[0].Update(workload.Op{Kind: workload.KindInc, Key: "still-up", N: 1})
	waitStoresConverged(t, stores, 1, 5*time.Second)
}

// TestStoreDropsConnectionThatChangesSender: a connection speaks for the
// neighbor its first frame names. A well-formed data frame that names the
// other neighbor on it closes the connection before anything in it is
// applied — else its acknowledgement, reach and drill would be booked to a
// neighbor whose connection this is not.
func TestStoreDropsConnectionThatChangesSender(t *testing.T) {
	stores := startStoreCluster(t, 3, 1, transport.EngineDelta, time.Hour)
	conn := openRaw(t, stores[0].Addr(), "s-01", 1)
	defer conn.Close()
	delta := protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta("s-02", 1))
	writeRawFrame(t, conn, "s-02", shardedFrame(t, protocol.LinkHeader{},
		protocol.ShardItem{Shard: 0, Msg: batchOf([]protocol.ObjectMsg{{Key: "spoofed", Inner: delta}})},
	))
	expectDrop(t, conn)
	if got := stores[0].Get("spoofed"); got != nil {
		t.Errorf("a frame naming s-02 on s-01's connection was applied: %v", got)
	}
	if got := stores[0].Stats().HelloRefused; got != 0 {
		t.Errorf("%d hellos refused, want the hello accepted and the second frame the cause", got)
	}
}

// spoof is a data frame that would create key on any store of one shard.
func spoof(t *testing.T, key string) []byte {
	delta := protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta("x", 1))
	return shardedFrame(t, protocol.LinkHeader{},
		protocol.ShardItem{Shard: 0, Msg: batchOf([]protocol.ObjectMsg{{Key: key, Inner: delta}})},
	)
}

// TestHelloFirstFrameOrClose: a connection opens with a hello that names
// its sender, or it is closed before anything on it is applied — a data
// frame that comes first, whether or not it names a sender, and a hello
// that names nobody.
func TestHelloFirstFrameOrClose(t *testing.T) {
	stores := startStoreCluster(t, 2, 1, transport.EngineDelta, time.Hour)
	for name, first := range map[string]func(conn net.Conn){
		"a data frame naming its sender": func(conn net.Conn) { writeRawFrame(t, conn, "s-01", spoof(t, "first")) },
		"a data frame naming nobody":     func(conn net.Conn) { writeRawFrame(t, conn, "", spoof(t, "first")) },
		"a hello naming nobody": func(conn net.Conn) {
			writeRawFrame(t, conn, "", encodeMsg(t, protocol.NewHelloMsg(protocol.WireVersion, 1, rawInc, nil)))
		},
	} {
		conn := dialNode(t, stores[0].Addr())
		first(conn)
		writeRawFrame(t, conn, "", spoof(t, "behind"))
		expectDrop(t, conn)
		conn.Close()
		for _, key := range []string{"first", "behind"} {
			if got := stores[0].Get(key); got != nil {
				t.Errorf("%s: %s was applied: %v", name, key, got)
			}
		}
	}
	if got := stores[0].Stats().HelloRefused; got != 0 {
		t.Errorf("%d hellos refused, want none: no frame was refused for what it said", got)
	}
	// The store is as healthy as before.
	stores[1].Update(workload.Op{Kind: workload.KindInc, Key: "alive", N: 1})
	stores[1].SyncNow()
	waitStoresConverged(t, stores, 1, 5*time.Second)
}

// TestHelloNamesOneSenderAndLife: once a connection's hello has named its
// sender and the sender's incarnation, a hello naming another sender, or
// the same sender and another incarnation, closes it — and nothing behind
// that on the connection is applied. A hello that names them again is a
// refresh, and what follows it is applied.
func TestHelloNamesOneSenderAndLife(t *testing.T) {
	stores := startStoreCluster(t, 3, 1, transport.EngineDelta, time.Hour)
	for name, c := range map[string]struct {
		from string
		inc  uint32
		drop bool
	}{
		"another sender":      {"s-02", rawInc, true},
		"another incarnation": {"s-01", rawInc + 1, true},
		"a refresh":           {"s-01", rawInc, false},
	} {
		conn := openRaw(t, stores[0].Addr(), "s-01", 1)
		writeRawFrame(t, conn, c.from, encodeMsg(t, protocol.NewHelloMsg(protocol.WireVersion, 1, c.inc, []string{"s-02"})))
		key := "behind " + name
		writeRawFrame(t, conn, "", spoof(t, key))
		if !c.drop {
			waitFor(t, 5*time.Second, func() bool { return stores[0].Get(key) != nil })
			conn.Close()
			continue
		}
		expectDrop(t, conn)
		conn.Close()
		if got := stores[0].Get(key); got != nil {
			t.Errorf("%s: the frame behind the hello was applied: %v", name, got)
		}
	}
	if got := stores[0].Stats().HelloRefused; got != 0 {
		t.Errorf("%d hellos refused for their version or shard count, want none", got)
	}
}

func TestStoreCloseWhilePeerMidFrame(t *testing.T) {
	// Send only a header promising 100 bytes: the store's readLoop parks
	// in io.ReadFull. Close must still return promptly.
	st, err := transport.StartStore(transport.StoreConfig{
		ID:         "solo",
		ListenAddr: "127.0.0.1:0",
		Peers:      map[string]string{},
		Engine:     transport.EngineDelta,
		ObjType:    func(string) workload.Datatype { return workload.GCounterType{} },
		SyncEvery:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn := openRaw(t, st.Addr(), "raw", 16)
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- st.Close() }()
	select {
	case err := <-done:
		if err != nil && !isUseOfClosed(err) {
			t.Errorf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Store.Close hung on a peer stuck mid-frame")
	}
}

func TestStoreIgnoresNonShardedFrames(t *testing.T) {
	// A store receiving a well-formed frame that is neither sharded nor
	// one of its control messages (a bare single-object δ-group) ignores
	// the message and keeps the connection: the frame behind it on the
	// same connection is still delivered.
	stores := startStoreCluster(t, 2, 4, transport.EngineDelta, 20*time.Millisecond)
	conn := openRaw(t, stores[0].Addr(), "legacy", 4)
	defer conn.Close()
	writeRawFrame(t, conn, "", encodeMsg(t, protocol.NewDeltaMsg(crdt.NewGSet("x"))))
	// An acknowledgement from a store that is no neighbor is counted.
	writeRawFrame(t, conn, "", shardedFrame(t, protocol.LinkHeader{Ack: protocol.FrameAck{Inc: 1, Cum: 1}}))
	waitFor(t, 5*time.Second, func() bool { return stores[0].Stats().IgnoredAcks == 1 })
	if got := stores[0].NumKeys(); got != 0 {
		t.Fatalf("the foreign δ-group created %d keys", got)
	}
	// The store stays healthy and keeps syncing its own keyspace.
	stores[0].Update(workload.Op{Kind: workload.KindInc, Key: "k", N: 1})
	waitStoresConverged(t, stores, 1, 5*time.Second)
}
