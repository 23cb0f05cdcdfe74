package transport

import (
	"math"
	"slices"

	"crdtsync/internal/protocol"
)

// Acknowledgement per link. The acked engine numbers the entries of every
// object's δ-buffer and wants each entry acknowledged by each neighbor;
// what is lost on the way, though, is a frame. So the store numbers the
// frames it sends a neighbor, remembers which entries each one carried,
// and the neighbor acknowledges frames: one cumulative mark plus the few
// ranges above a gap, on whatever frame goes back next. An acknowledged
// frame's δ-groups are handed to their engines as the acknowledgements
// of their entry seqs (protocol.PerObject.Ack); which entry is sent again
// stays the engine's decision. When is the link's evidence: the round
// trips it measures from the acknowledgements (wait), which the core hands
// the engines on every tick.

// maxInflight bounds the records a link keeps. The oldest is dropped to
// make room: an acknowledgement that names it later retires nothing and
// its entries go out again on the engine's own timer, as they would toward
// a peer that never answers. 256 frames is 160 ms of the densest traffic
// the benchmark produces (a flush every eighth of a 5 ms period), over
// half a second at a 20 ms period; a round trip longer than the frames it
// takes to fill the ring is the one that acknowledges nothing.
const maxInflight = 256

// closeAfter is the number of ticks after which the link stops waiting
// for a frame nobody has acknowledged: Back shrinks past it, so that the
// neighbor's mark can close over a number that was lost and its ranges
// stay few. Only the waiting ends. The record is kept, and an
// acknowledgement that is merely late — minted before the neighbor could
// have been told — still retires it (see acknowledge), however long the
// round trip. What the value costs is a frame overtaken by one sent this
// many ticks after it: applied, and sent again all the same.
const closeAfter = 8

// maxAckRanges bounds the ranges above the cumulative mark a link keeps
// for the frames it has received. Past it the lowest range is forgotten:
// those frames go unacknowledged and their entries arrive again.
const maxAckRanges = protocol.MaxAckRanges

// ackItem is one δ-group of a numbered frame: the entries of one object's
// δ-buffer that the frame's acknowledgement acknowledges, and whether the
// group carried an entry sent before (protocol.Emit's retry).
type ackItem struct {
	shard uint32
	key   string
	seqs  []uint64
	retry bool
}

// frameRec is what the link remembers of one numbered frame.
type frameRec struct {
	// items is what the frame carried; nil once the record is settled —
	// retired by an acknowledgement, or dropped.
	items []ackItem
	// born is the tick the frame was sent in, at the time on the store's
	// clock.
	born uint64
	at   int64
	// closed, once the link has stopped waiting for the frame, is the
	// number of the first frame that may have told the neighbor so.
	closed uint64
}

// link is the acknowledgement state shared with one neighbor, in both
// directions.
type link struct {
	// inc is this store's incarnation, which the neighbor's
	// acknowledgements must name.
	inc uint32
	// Frames sent. The records of kept..sent are a ring indexed by
	// sequence number. Those of first..sent are waited for: first is the
	// oldest unsettled one (sent+1 when none), open counts them, and every
	// frame tells the neighbor how far back first lies. Those of
	// kept..first-1 are closed — not waited for any more, kept for an
	// acknowledgement that is late. tick is the store's current one.
	sent, first, kept uint64
	recs              []frameRec
	tick              uint64
	open              int
	ackedTo           uint64 // highest cumulative mark the neighbor has sent
	// srtt and rttvar are the smoothed round trip and its mean deviation,
	// in nanoseconds on the store's clock, from the acknowledgements of
	// frames that carried no resend (sample); srtt is 0 until the first.
	srtt, rttvar int64
	// Frames received, of the neighbor's incarnation peerInc: all up to
	// cum, and ranges[:nranges] above it, ascending and never adjacent.
	peerInc  uint32
	cum      uint64
	ranges   [maxAckRanges]protocol.SeqRange
	nranges  int
	received uint64 // highest sequence number seen
	// owed is set by a numbered frame's arrival and cleared when an
	// acknowledgement is taken for sending. owedAt is when, on the store's
	// clock, an arrival found none owed: the start of the hold
	// (ackHoldsPerTick), meaningful while owed is set.
	owed   bool
	owedAt int64
	// catchUp is the digest comparison owed with the neighbor, matched
	// has bit i set while the neighbor's last advertisement carried this
	// store's digest of shard i (handleDigests), and helloInc is the
	// incarnation its last hello named (handleHello): none has to do with
	// acknowledgements, but all are per neighbor too.
	catchUp  catchUp
	matched  []uint64
	helloInc uint32
}

func newLink(inc uint32) *link { return &link{inc: inc, first: 1, kept: 1} }

// newIncarnation draws the number that tells this life of a store from
// any other: the nanoseconds of the shell's clock reading at start,
// folded to 32 bits, never zero.
func newIncarnation(ns int64) uint32 {
	n := uint64(ns)
	inc := uint32(n) ^ uint32(n>>32)*0x9e3779b1
	if inc == 0 {
		inc = 1
	}
	return inc
}

func (l *link) rec(seq uint64) *frameRec { return &l.recs[seq%maxInflight] }

// next returns the header of the next numbered frame without giving the
// number out; commit does that, within the same pass, so the number is the
// one the frame gets. Back may be stale by then — commit may drop the
// oldest record to make room — which errs on the safe side. The
// incarnation is left out: the frame travels on a connection whose hello
// names it.
func (l *link) next() protocol.FrameSeq {
	return protocol.FrameSeq{Seq: l.sent + 1, Back: l.sent + 1 - l.first}
}

// commit gives fs, the result of next, out and records items, which the
// link keeps, as what the frame sent at now carries.
func (l *link) commit(fs protocol.FrameSeq, items []ackItem, now int64) {
	if l.recs == nil {
		l.recs = make([]frameRec, maxInflight)
	}
	if fs.Seq-l.kept == maxInflight {
		// The ring is full: the oldest record makes room.
		l.settle(l.kept)
		l.kept++
		l.first = max(l.first, l.kept)
	}
	l.sent = fs.Seq
	*l.rec(fs.Seq) = frameRec{items: items, born: l.tick, at: now}
	l.open++
	l.advance()
}

// age starts the store's tick-th tick on the link: the frames sent
// closeAfter ticks ago or earlier are not waited for any longer.
func (l *link) age(tick uint64) {
	l.tick = tick
	for l.first <= l.sent {
		if r := l.rec(l.first); r.items != nil {
			if r.born+closeAfter > tick {
				break
			}
			// No frame numbered sent or below says so.
			r.closed = l.sent + 1
			l.open--
		}
		l.first++
	}
}

// settle drops one record, and with it the link's only reference to the
// keys and seq slices it names.
func (l *link) settle(seq uint64) {
	r := l.rec(seq)
	if r.items != nil && seq >= l.first {
		l.open--
	}
	*r = frameRec{}
}

// advance moves first and kept past the settled records.
func (l *link) advance() {
	for l.first <= l.sent && l.rec(l.first).items == nil {
		l.first++
	}
	for l.kept < l.first && l.rec(l.kept).items == nil {
		l.kept++
	}
}

// names reports whether ack acknowledges frame seq.
func names(ack *protocol.FrameAck, seq uint64) bool {
	if seq <= ack.Cum {
		return true
	}
	for _, r := range ack.Ranges {
		if r.Lo <= seq && seq <= r.Hi {
			return true
		}
	}
	return false
}

// acknowledge settles the records ack names and appends what they carried
// to out. It reports false, settling nothing, for an acknowledgement that
// was minted for another incarnation of this store or that names a frame
// this one has not sent.
//
// The neighbor's mark passes a number for one of two reasons: the frame
// arrived, or a later frame's Back said it was not waited for any more.
// Of a frame the link still waits for, nothing has said the second. Of a
// closed one, frames numbered closed and above may have; the highest
// number ack names is the highest the neighbor had seen when it minted
// it, so below closed the acknowledgement means what it says — it is
// late, at whatever delay — and from closed on the mark means nothing for
// this frame and never will again: the record is dropped, the entries
// stay the engine's to send again.
//
// An acknowledgement that arrives at now is also a round-trip sample: of
// the frames it names, the one sent first, unless it carried an entry sent
// before — whose acknowledgement may be the earlier send's (Karn). The
// first sent is the one whose acknowledgement the neighbor held longest.
func (l *link) acknowledge(ack *protocol.FrameAck, out []ackItem, now int64) ([]ackItem, bool) {
	top := ack.Cum
	if n := len(ack.Ranges); n > 0 {
		top = ack.Ranges[n-1].Hi
	}
	if ack.Inc != l.inc || top > l.sent {
		return out, false
	}
	sampled := false
	for seq := l.kept; seq <= top; seq++ {
		r := l.rec(seq)
		switch {
		case r.items == nil:
		case seq < l.first && top >= r.closed:
			l.settle(seq)
		case names(ack, seq):
			if !sampled && !slices.ContainsFunc(r.items, func(it ackItem) bool { return it.retry }) {
				l.sample(now - r.at)
				sampled = true
			}
			out = append(out, r.items...)
			l.settle(seq)
		}
	}
	l.advance()
	l.ackedTo = max(l.ackedTo, ack.Cum)
	return out, true
}

// receive notes the arrival, at now on the store's clock, of a numbered
// frame whose items have all been applied, and that the neighbor is owed an
// acknowledgement. It reports whether that started a hold: none was owed.
func (l *link) receive(fs protocol.FrameSeq, now int64) bool {
	if fs.Inc != l.peerInc {
		// Another life of the neighbor: its numbers start over.
		l.peerInc, l.cum, l.nranges, l.received = fs.Inc, 0, 0, 0
	}
	l.received = max(l.received, fs.Seq)
	// Everything below Seq-Back is settled at the sender.
	l.cum = max(l.cum, fs.Seq-fs.Back-1)
	switch rs := l.ranges[:l.nranges]; {
	case fs.Seq <= l.cum:
	case fs.Seq == l.cum+1:
		l.cum++
	default:
		i := 0
		for i < len(rs) && rs[i].Hi+1 < fs.Seq {
			i++
		}
		switch {
		case i < len(rs) && rs[i].Hi+1 == fs.Seq:
			rs[i].Hi++
			if i+1 < len(rs) && rs[i+1].Lo == fs.Seq+1 {
				rs[i].Hi = rs[i+1].Hi
				l.dropRange(i + 1)
			}
		case i < len(rs) && rs[i].Lo <= fs.Seq+1:
			rs[i].Lo = min(rs[i].Lo, fs.Seq)
		default:
			if l.nranges == maxAckRanges {
				if i == 0 {
					break // lower than everything kept: goes unacknowledged
				}
				l.dropRange(0)
				i--
			}
			copy(l.ranges[i+1:l.nranges+1], l.ranges[i:l.nranges])
			l.ranges[i] = protocol.SeqRange{Lo: fs.Seq, Hi: fs.Seq}
			l.nranges++
		}
	}
	// The mark absorbs the ranges it has reached.
	for l.nranges > 0 && l.ranges[0].Lo <= l.cum+1 {
		l.cum = max(l.cum, l.ranges[0].Hi)
		l.dropRange(0)
	}
	if l.owed {
		return false
	}
	l.owed, l.owedAt = true, now
	return true
}

// sample takes one round trip r into the estimate, as RFC 6298 does
// (Jacobson's estimator): the first sets srtt to r and rttvar to r/2, each
// later one moves rttvar a quarter of the way to |srtt-r| and srtt an
// eighth of the way to r.
func (l *link) sample(r int64) {
	if l.srtt == 0 {
		l.srtt, l.rttvar = r, r/2
		return
	}
	dev := l.srtt - r
	if dev < 0 {
		dev = -dev
	}
	l.rttvar += (dev - l.rttvar) / 4
	l.srtt += (r - l.srtt) / 8
}

// unsampledWait is the wait of a link with no round trip measured yet, in
// ticks. An acknowledgement comes back within a round trip on the wire
// plus the neighbor's hold, at most two ticks (ackHoldsPerTick), so no
// first send is resent before it could have arrived on a link whose frames
// spend up to seven ticks on the wire each way. It costs what it waits only
// until the first sample: the engines read the wait on every tick, so a
// frame lost before then is sent again on the sampled wait. The wait the
// neighbor's hold alone asks for, three ticks, resends what leaves in the
// first round trip of a longer link: at 1.5 and 3 ticks each way it read
// 0.06 and 0.26 retransmissions per update (TestSimLatencyTableResendsNothing).
const unsampledWait = 16

// wait returns the ticks of period an entry sent to the neighbor waits for
// its acknowledgement before it is sent again: srtt + 4·rttvar plus one
// hold, rounded up to whole ticks. The neighbor holds an acknowledgement as
// this store does, between one hold (period/ackHoldsPerTick) and two —
// unless its owner ticks it, which this store cannot know — and every
// sample includes that hold: one taken while acknowledgements ride data
// frames says nothing of one that waited out both, so one hold is added.
func (l *link) wait(period int64) uint8 {
	if l.srtt == 0 {
		return unsampledWait
	}
	ticks := (l.srtt + 4*l.rttvar + period/ackHoldsPerTick + period - 1) / period
	return uint8(min(max(ticks, 1), math.MaxUint8-1))
}

func (l *link) dropRange(i int) {
	copy(l.ranges[i:], l.ranges[i+1:l.nranges])
	l.nranges--
}

// takeAck returns the acknowledgement the neighbor is owed, if any, for a
// frame that is about to leave at now, once it has been owed for hold; the
// caller must send it or call owe.
func (l *link) takeAck(now, hold int64) (protocol.FrameAck, bool) {
	if !l.owed || now-l.owedAt < hold {
		return protocol.FrameAck{}, false
	}
	l.owed = false
	ack := protocol.FrameAck{Inc: l.peerInc, Cum: l.cum}
	if l.nranges > 0 {
		ack.Ranges = append(ack.Ranges, l.ranges[:l.nranges]...)
	}
	return ack, true
}

// owe puts back an acknowledgement that was taken and did not leave. Its
// hold runs from when it was first owed, as owedAt still says — unless a
// frame arrived in between, which restarted it a moment later.
func (l *link) owe() { l.owed = true }

// fill copies the link's view into the neighbor's stats.
func (l *link) fill(ps *PeerStats) {
	ps.InFlight = l.open
	ps.LastSent = l.sent
	ps.LastAcked = l.ackedTo
	ps.LastReceived = l.received
}
