package transport_test

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"crdtsync/internal/codec"
	"crdtsync/internal/protocol"
	"crdtsync/internal/transport"
	"crdtsync/internal/workload"
)

// readRawFrame reads one transport frame off conn: the sender id and the
// codec message.
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

// writeRawFrame writes one transport frame claiming to come from from.
func writeRawFrame(t *testing.T, conn net.Conn, from string, m protocol.Msg) {
	t.Helper()
	msg, err := codec.EncodeMsg(m)
	if err != nil {
		t.Fatal(err)
	}
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
// each is counted, and the entry goes out again on its tick.
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
		Factory:    protocol.NewDeltaAcked(true, true),
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
	// The connection introduces itself before anything else.
	_, msg := readRawFrame(t, in)
	m, _, err := codec.DecodeMsg(msg)
	if hello, ok := m.(*protocol.HelloMsg); err != nil || !ok || hello.Version != protocol.WireVersion ||
		hello.Shards != 4 || len(hello.Reaches) != 1 || hello.Reaches[0] != "p1" {
		t.Fatalf("first frame on the connection: %+v (%v), want the hello: version %d, 4 shards, reaching p1", m, err, protocol.WireVersion)
	}
	numberedFrame := func() protocol.FrameSeq {
		from, msg := readRawFrame(t, in)
		m, _, err := codec.DecodeMsg(msg)
		if err != nil || from != "n0" {
			t.Fatalf("frame from %q: %v", from, err)
		}
		sm := m.(*protocol.ShardedMsg)
		bm := sm.Items[0].Msg.(*protocol.BatchMsg)
		if _, plain := bm.Items[0].Inner.(*protocol.DeltaMsg); !plain || bm.Items[0].Key != "k" || sm.Link.Seq.Inc == 0 {
			t.Fatalf("got %T for %q under link header %+v, want a plain δ-group in a numbered frame", bm.Items[0].Inner, bm.Items[0].Key, sm.Link)
		}
		return sm.Link.Seq
	}
	first := numberedFrame()
	if first.Seq != 1 || first.Back != 0 {
		t.Fatalf("first frame numbered %+v", first)
	}

	out := dialNode(t, st.Addr())
	defer out.Close()
	ack := func(from string, a protocol.FrameAck) {
		writeRawFrame(t, out, from, protocol.NewShardedLinkMsg(nil, nil, protocol.LinkHeader{Ack: a}))
	}
	otherLife := first.Inc ^ 0x5a5a5a5a
	if otherLife == 0 {
		otherLife = 1
	}
	for i, c := range []struct {
		name, from string
		ack        protocol.FrameAck
	}{
		{"another incarnation", "p1", protocol.FrameAck{Inc: otherLife, Cum: 1}},
		{"a frame never sent", "p1", protocol.FrameAck{Inc: first.Inc, Cum: 2}},
		{"a range never sent", "p1", protocol.FrameAck{Inc: first.Inc, Ranges: []protocol.SeqRange{{Lo: 2, Hi: 3}}}},
		{"a non-neighbor", "stranger", protocol.FrameAck{Inc: first.Inc, Cum: 1}},
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
	// A full tick without its acknowledgement: the entry goes out again.
	st.SyncNow()
	if second := numberedFrame(); second.Seq != 2 || second.Back != 1 || second.Inc != first.Inc {
		t.Fatalf("second frame numbered %+v, want 2 waiting back to 1", second)
	}
	if got := st.Stats().Retransmits; got != 1 {
		t.Fatalf("%d retransmissions, want 1", got)
	}
	// The acknowledgement that is this life's retires it.
	ack("p1", protocol.FrameAck{Inc: first.Inc, Cum: 2})
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
