package transport_test

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
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

func TestStoreDropsOversizedFrame(t *testing.T) {
	stores := startStoreCluster(t, 2, 4, protocol.NewDeltaBPRR(), 20*time.Millisecond)
	conn := dialNode(t, stores[0].Addr())
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
	stores := startStoreCluster(t, 2, 4, protocol.NewDeltaBPRR(), 20*time.Millisecond)
	conn := dialNode(t, stores[0].Addr())
	defer conn.Close()
	// Well-framed garbage: valid length and sender id, unparseable
	// message body (unknown codec tag).
	body := []byte{0, 2, 'z', 'z', 250, 1, 2, 3}
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
	stores := startStoreCluster(t, 3, 1, protocol.NewDeltaBPRR(), time.Hour)
	conn := dialNode(t, stores[0].Addr())
	defer conn.Close()
	writeRawFrame(t, conn, "s-01", protocol.NewHelloMsg(protocol.WireVersion, 1, nil))
	delta := protocol.NewDeltaMsg(crdt.NewGCounter().IncDelta("s-02", 1))
	writeRawFrame(t, conn, "s-02", protocol.NewShardedMsg([]protocol.ShardItem{
		{Shard: 0, Msg: protocol.BatchOf([]protocol.ObjectMsg{{Key: "spoofed", Inner: delta}})},
	}))
	expectDrop(t, conn)
	if got := stores[0].Get("spoofed"); got != nil {
		t.Errorf("a frame naming s-02 on s-01's connection was applied: %v", got)
	}
	if got := stores[0].Stats().HelloRefused; got != 0 {
		t.Errorf("%d hellos refused, want the hello accepted and the second frame the cause", got)
	}
}

func TestStoreCloseWhilePeerMidFrame(t *testing.T) {
	// Send only a header promising 100 bytes: the store's readLoop parks
	// in io.ReadFull. Close must still return promptly.
	st, err := transport.StartStore(transport.StoreConfig{
		ID:         "solo",
		ListenAddr: "127.0.0.1:0",
		Peers:      map[string]string{},
		Factory:    protocol.NewDeltaBPRR(),
		ObjType:    func(string) workload.Datatype { return workload.GCounterType{} },
		SyncEvery:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialNode(t, st.Addr())
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
	stores := startStoreCluster(t, 2, 4, protocol.NewDeltaBPRR(), 20*time.Millisecond)
	conn := dialNode(t, stores[0].Addr())
	defer conn.Close()
	writeRawFrame(t, conn, "legacy", protocol.NewDeltaMsg(crdt.NewGSet("x")))
	// An acknowledgement from a store that is no neighbor is counted.
	writeRawFrame(t, conn, "legacy", protocol.NewShardedLinkMsg(nil, nil,
		protocol.LinkHeader{Ack: protocol.FrameAck{Inc: 1, Cum: 1}}))
	waitFor(t, 5*time.Second, func() bool { return stores[0].Stats().IgnoredAcks == 1 })
	if got := stores[0].NumKeys(); got != 0 {
		t.Fatalf("the foreign δ-group created %d keys", got)
	}
	// The store stays healthy and keeps syncing its own keyspace.
	stores[0].Update(workload.Op{Kind: workload.KindInc, Key: "k", N: 1})
	waitStoresConverged(t, stores, 1, 5*time.Second)
}
