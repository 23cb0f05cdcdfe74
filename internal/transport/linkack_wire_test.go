package transport_test

import (
	"encoding/binary"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/crdt"
	"crdtsync/internal/protocol"
	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// readRawFrame reads one transport frame off conn: the sender id (empty
// but on a hello) and the codec message.
func readRawFrame(t *testing.T, conn net.Conn) (from string, msg []byte) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("read frame length: %v", err)
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatalf("read frame body: %v", err)
	}
	idLen := int(binary.BigEndian.Uint16(body))
	return string(body[2 : 2+idLen]), body[2+idLen:]
}

// rawInc is the incarnation a raw test peer's hello names.
const rawInc = 9

// openRaw dials a store's listener and opens the connection as a store of
// shards shards and incarnation rawInc named from would: with a hello.
func openRaw(t *testing.T, addr, from string, shards uint32) net.Conn {
	t.Helper()
	conn := dialNode(t, addr)
	writeRawFrame(t, conn, from, encodeMsg(t, protocol.NewHelloMsg(protocol.WireVersion, shards, rawInc, nil)))
	return conn
}

// encodeMsg encodes a standalone message: a hello, or a bare δ-group no
// store sends.
func encodeMsg(t *testing.T, m protocol.Msg) []byte {
	t.Helper()
	data, err := codec.EncodeMsg(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// shardedFrame writes the frame a store's packer writes for items under
// link, through the packer's append functions: the keyed items of their
// batches as one run in key order, then every other item bare.
func shardedFrame(t *testing.T, link protocol.LinkHeader, items ...protocol.ShardItem) []byte {
	t.Helper()
	var run []protocol.ObjectMsg
	var bare []protocol.ShardItem
	for _, it := range items {
		if bm, keyed := it.Msg.(*protocol.BatchMsg); keyed {
			run = append(run, bm.Items...)
		} else {
			bare = append(bare, it)
		}
	}
	slices.SortStableFunc(run, func(a, b protocol.ObjectMsg) int { return strings.Compare(a.Key, b.Key) })
	b := codec.AppendShardedHeader(nil, link, nil, len(run), len(bare))
	var nt codec.Names
	var err error
	for i, om := range run {
		var prev *string
		if i > 0 {
			prev = &run[i-1].Key
		}
		if b, err = codec.AppendKeyed(b, prev, om.Key, om.Inner.(*protocol.DeltaMsg).Delta, &nt); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range bare {
		if b, err = codec.AppendShardItem(b, it); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// batchOf is a BatchMsg over oms, the δ-groups of one shard.
func batchOf(oms []protocol.ObjectMsg) *protocol.BatchMsg {
	return &protocol.BatchMsg{Items: oms}
}

// writeRawFrame writes one transport frame naming from as its sender; a
// store names itself on its hellos alone, and nobody ("") on every other
// frame.
func writeRawFrame(t *testing.T, conn net.Conn, from string, msg []byte) {
	t.Helper()
	body := binary.BigEndian.AppendUint16(nil, uint16(len(from)))
	body = append(append(body, from...), msg...)
	frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write frame: %v", err)
	}
}

// TestLinkAckFromAnotherLifeRetiresNothing plays the peer of an acked
// store over raw TCP. The hazard: a store that restarts numbers from 1
// again — frames now, entries per object before — while a peer's write
// queue, which outlives the connection, may still hold acknowledgements
// for its previous life; one of those retiring an entry the peer never
// received is a lost update nothing heals without digests. (With
// per-object acks, AckMsg{1} for the key did exactly that: nothing in it
// said whose seq 1 it was.) An acknowledgement names the incarnation it
// was minted for, so the one for another life retires nothing, nor does
// one for a frame never sent, nor one from a store that is no neighbor;
// each is counted, and the entry goes out again once its wait is over.
func TestLinkAckFromAnotherLifeRetiresNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	st, err := transport.StartStore(transport.StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Peers:      map[string]string{"p1": ln.Addr().String()},
		Shards:     4,
		Engine:     transport.EngineAcked,
		ObjType:    func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Update(workload.Add("k", "x"))
	st.SyncNow()
	in, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	// The connection introduces itself before anything else, naming the
	// store and its life; no later frame names either.
	from, msg := readRawFrame(t, in)
	m, _, err := codec.DecodeMsg(msg)
	hello, ok := m.(*protocol.HelloMsg)
	if err != nil || !ok || from != "n0" || hello.Version != protocol.WireVersion || hello.Shards != 4 || hello.Inc == 0 ||
		len(hello.Reaches) != 1 || hello.Reaches[0] != "p1" {
		t.Fatalf("first frame on the connection: %+v from %q (%v), want the hello from n0: version %d, 4 shards, an incarnation, reaching p1",
			m, from, err, protocol.WireVersion)
	}
	life := hello.Inc
	numberedFrame := func() protocol.FrameSeq {
		from, msg := readRawFrame(t, in)
		if from != "" {
			t.Fatalf("frame naming %q, want one naming nobody", from)
		}
		var v codec.FrameView
		if err := codec.UnpackFrame(msg, 4, &v); err != nil || v.NumItems() == 0 {
			t.Fatalf("frame %x unpacks to %d items: %v", msg, v.NumItems(), err)
		}
		iv := &v.Groups()[0].Items[0]
		m, _ := iv.Msg()
		if _, plain := m.(*protocol.DeltaMsg); !plain || string(iv.Key) != "k" || v.Link.Seq.Seq == 0 || v.Link.Seq.Inc != 0 {
			t.Fatalf("got %T for %q under link header %+v, want a plain δ-group in a numbered frame of no incarnation of its own",
				m, iv.Key, v.Link)
		}
		return v.Link.Seq
	}
	first := numberedFrame()
	if first.Seq != 1 || first.Back != 0 {
		t.Fatalf("first frame numbered %+v", first)
	}

	// A connection speaks for the sender its hello names: the stranger's
	// acknowledgement comes on a connection of its own.
	out, strangers := openRaw(t, st.Addr(), "p1", 4), openRaw(t, st.Addr(), "stranger", 4)
	defer out.Close()
	defer strangers.Close()
	ack := func(from string, a protocol.FrameAck) {
		conn := out
		if from != "p1" {
			conn = strangers
		}
		writeRawFrame(t, conn, "", shardedFrame(t, protocol.LinkHeader{Ack: a}))
	}
	otherLife := life ^ 0x5a5a5a5a
	if otherLife == 0 {
		otherLife = 1
	}
	for i, c := range []struct {
		name, from string
		ack        protocol.FrameAck
	}{
		{"another incarnation", "p1", protocol.FrameAck{Inc: otherLife, Cum: 1}},
		{"a frame never sent", "p1", protocol.FrameAck{Inc: life, Cum: 2}},
		{"a range never sent", "p1", protocol.FrameAck{Inc: life, Ranges: []protocol.SeqRange{{Lo: 2, Hi: 3}}}},
		{"a non-neighbor", "stranger", protocol.FrameAck{Inc: life, Cum: 1}},
	} {
		ack(c.from, c.ack)
		deadline := time.Now().Add(5 * time.Second)
		for st.Stats().IgnoredAcks != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: acknowledgement not counted as ignored: %+v", c.name, st.Stats())
			}
			time.Sleep(time.Millisecond)
		}
		if ps := st.Stats().Peers["p1"]; ps.InFlight != 1 || ps.LastAcked != 0 || st.Memory().BufferBytes == 0 {
			t.Fatalf("%s retired the entry: link %+v, %d buffered bytes", c.name, ps, st.Memory().BufferBytes)
		}
	}
	// The wait without its acknowledgement — the link has measured no round
	// trip — and the entry goes out again.
	for tick := 1; tick < transport.UnsampledWait; tick++ {
		st.SyncNow()
		if got := st.Stats().Retransmits; got != 0 {
			t.Fatalf("tick %d: %d retransmissions inside the wait", tick+1, got)
		}
	}
	st.SyncNow()
	// The link stopped waiting for the first frame closeAfter ticks after
	// it: the second waits back to nothing.
	if second := numberedFrame(); second.Seq != 2 || second.Back != 0 {
		t.Fatalf("second frame numbered %+v, want 2 waiting back to nothing", second)
	}
	if got := st.Stats().Retransmits; got != 1 {
		t.Fatalf("%d retransmissions, want 1", got)
	}
	// The acknowledgement that is this life's retires it.
	ack("p1", protocol.FrameAck{Inc: life, Cum: 2})
	deadline := time.Now().Add(5 * time.Second)
	for st.Memory().BufferBytes != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("a genuine acknowledgement retired nothing: %+v", st.Stats().Peers["p1"])
		}
		time.Sleep(time.Millisecond)
	}
	st.SyncNow()
	st.SyncNow()
	if s := st.Stats(); s.Retransmits != 1 || s.IgnoredAcks != 4 || s.Peers["p1"].InFlight != 0 || s.Peers["p1"].LastAcked != 2 {
		t.Errorf("after the acknowledgement: %d retransmissions, %d ignored, link %+v", s.Retransmits, s.IgnoredAcks, s.Peers["p1"])
	}
}

// TestLinkAckTwoLivesOnOverlappingConnections plays a neighbor that
// restarted while its old connection is still up: each life's frames come
// on the connection its hello opened, and each is acknowledged under the
// incarnation that hello named — the life is the connection's, not the
// neighbor's last word — so the old life's frame after the new one's hello
// is still acknowledged as the old life's.
func TestLinkAckTwoLivesOnOverlappingConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	st, err := transport.StartStore(transport.StoreConfig{
		ID:         "n0",
		ListenAddr: "127.0.0.1:0",
		Peers:      map[string]string{"p1": ln.Addr().String()},
		Shards:     1,
		Engine:     transport.EngineAcked,
		ObjType:    func(string) workload.Datatype { return workload.GSetType{} },
		SyncEvery:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SyncNow() // from now on no acknowledgement is held back

	life := func(inc uint32) net.Conn {
		conn := dialNode(t, st.Addr())
		writeRawFrame(t, conn, "p1", encodeMsg(t, protocol.NewHelloMsg(protocol.WireVersion, 1, inc, nil)))
		return conn
	}
	send := func(conn net.Conn, key string, seq uint64) {
		item := protocol.ShardItem{Msg: batchOf([]protocol.ObjectMsg{
			{Key: key, Inner: protocol.NewDeltaMsg(crdt.NewGSet(key))},
		})}
		writeRawFrame(t, conn, "", shardedFrame(t, protocol.LinkHeader{Seq: protocol.FrameSeq{Seq: seq}}, item))
	}
	var in net.Conn
	nextAck := func() protocol.FrameAck {
		t.Helper()
		if in == nil {
			ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
			if in, err = ln.Accept(); err != nil {
				t.Fatal(err)
			}
			if from, _ := readRawFrame(t, in); from != "n0" {
				t.Fatalf("connection opened by a frame naming %q, want n0's hello", from)
			}
		}
		from, msg := readRawFrame(t, in)
		var v codec.FrameView
		if err := codec.UnpackFrame(msg, 1, &v); err != nil || from != "" || v.NumItems() != 0 || v.Link.Ack.Inc == 0 {
			t.Fatalf("frame naming %q: %x (%v), want an acknowledgement alone", from, msg, err)
		}
		return v.Link.Ack
	}
	old := life(5)
	defer old.Close()
	send(old, "a", 1)
	if got := nextAck(); got.Inc != 5 || got.Cum != 1 {
		t.Fatalf("the old life's frame 1 acknowledged as %+v, want incarnation 5 up to 1", got)
	}
	restarted := life(6)
	defer restarted.Close()
	send(restarted, "b", 1)
	if got := nextAck(); got.Inc != 6 || got.Cum != 1 {
		t.Fatalf("the new life's frame 1 acknowledged as %+v, want incarnation 6 up to 1", got)
	}
	send(old, "c", 2)
	if got := nextAck(); got.Inc != 5 || got.Cum != 2 {
		t.Fatalf("the old life's frame 2, after the new life's hello, acknowledged as %+v, want incarnation 5 up to 2", got)
	}
	if in != nil {
		in.Close()
	}
	for _, key := range []string{"a", "b", "c"} {
		if st.Get(key) == nil {
			t.Errorf("%s was not applied", key)
		}
	}
}
