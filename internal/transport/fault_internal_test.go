package transport

import (
	"math/rand"
	"net"
	"testing"
)

// TestFaultDropIsOneSeededDrawPerFrame pins Fault's fate sequence at the
// decide level, which is what makes bench's seeded loss reproducible: a
// drop rate above 0 consumes exactly one rng.Float64 per frame and a rate
// of 0 none, and frame i is dropped iff the i-th draw of
// rand.New(rand.NewSource(seed)) is below the rate.
func TestFaultDropIsOneSeededDrawPerFrame(t *testing.T) {
	const seed, frames, rate = 42, 1000, 0.3
	f := NewFault(seed)
	draws := rand.New(rand.NewSource(seed))
	// inStep fails the test unless the injector's next draw is the
	// reference's: both have consumed the same number.
	inStep := func(what string) {
		t.Helper()
		if f.rng.Float64() != draws.Float64() {
			t.Fatalf("the draws are out of step after %s", what)
		}
	}
	for i := 0; i < frames; i++ {
		if f.decide() {
			t.Fatalf("frame %d dropped at rate 0", i)
		}
	}
	inStep("frames at rate 0, which draw nothing")
	f.SetDropRate(rate)
	dropped := 0
	for i := 0; i < frames; i++ {
		want := draws.Float64() < rate
		if got := f.decide(); got != want {
			t.Fatalf("frame %d: dropped %v, want %v (its draw against %.1f)", i, got, want, rate)
		}
		if want {
			dropped++
		}
	}
	if dropped == 0 || dropped == frames {
		t.Fatalf("%d of %d frames dropped at %.1f", dropped, frames, rate)
	}
	inStep("one draw per frame at a rate above 0")
}

// TestFaultNeverDropsAConnectionsFirstFrame: a connection either opens or
// fails, so its first frame — the hello — passes whatever the injector is
// set to, and draws nothing; under a drop rate of 1 it passes and every
// later frame is lost.
func TestFaultNeverDropsAConnectionsFirstFrame(t *testing.T) {
	const later = 11
	f := NewFault(1)
	f.SetDropRate(1)
	local, remote := net.Pipe()
	conn, err := f.Dialer(func(string, string) (net.Conn, error) { return local, nil })("p", "pipe")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan [][]byte)
	go func() {
		var frames [][]byte
		var buf []byte
		for {
			from, msg, err := readFrameInto(remote, &buf)
			if err != nil {
				got <- frames
				return
			}
			frames = append(frames, append(append([]byte(nil), from...), msg...))
		}
	}()
	writeFrame(conn, "s-00", []byte("hello"))
	for i := 0; i < later-1; i++ {
		writeFrame(conn, "", []byte("data"))
	}
	writeFrame(conn, "s-00", []byte("refresh"))
	conn.Close()
	if frames := <-got; len(frames) != 1 || string(frames[0]) != "s-00hello" {
		t.Errorf("%q arrived, want the opening hello alone", frames)
	}
	remote.Close()
	ref := rand.New(rand.NewSource(1))
	for i := 0; i < later; i++ {
		ref.Float64()
	}
	if f.rng.Float64() != ref.Float64() {
		t.Errorf("the draws are out of step: want none for the opening frame and %d after it", later)
	}
}
