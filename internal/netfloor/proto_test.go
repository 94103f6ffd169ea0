package netfloor

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/floor"
	"repro/internal/lna"
)

// TestFrameRoundTrip: every envelope shape survives the length+CRC+JSON
// framing over a real pipe, including the float64 spec predictions (Go
// JSON round-trips float64 bit-exactly).
func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ma, mb := NewMsgConn(a), NewMsgConn(b)

	res := &floor.DeviceResult{
		Index: 7, Bin: floor.BinPass, Insertions: 2, CleanD: 0.17,
		Faults:   []floor.FaultKind{floor.FaultBurstNoise, floor.FaultNone},
		Verdicts: []floor.Verdict{floor.VerdictInvalid, floor.VerdictClean},
		Pred:     lna.Specs{GainDB: 12.062500000000002, NFDB: 3.3, IIP3DBm: -8.93},
		TruePass: true,
	}
	msgs := []*Envelope{
		{Type: MsgHello, Hello: &Hello{Version: 1, Devices: 10, FaultP: 0.15, Fingerprint: 0xdeadbeef}},
		{Type: MsgAssign, Seq: 3, Device: 7},
		{Type: MsgResult, Seq: 3, Device: 7, Result: res, Site: "pipe"},
		{Type: MsgHeartbeat},
		{Type: MsgError, Err: "nope"},
	}
	go func() {
		for _, env := range msgs {
			ma.Write(env, time.Second)
		}
	}()
	for _, want := range msgs {
		got, err := mb.Read(time.Second)
		if err != nil {
			t.Fatalf("read %s: %v", want.Type, err)
		}
		if got.Type != want.Type || got.Seq != want.Seq || got.Device != want.Device || got.Err != want.Err {
			t.Fatalf("envelope mangled: %+v vs %+v", got, want)
		}
		if want.Hello != nil && *got.Hello != *want.Hello {
			t.Fatalf("hello mangled: %+v vs %+v", got.Hello, want.Hello)
		}
		if want.Result != nil {
			if got.Result.Pred != want.Result.Pred || got.Result.CleanD != want.Result.CleanD {
				t.Fatalf("result floats mangled over the wire: %+v vs %+v", got.Result, want.Result)
			}
		}
	}
}

// TestFrameCorruptionDetected: a flipped payload byte surfaces as
// ErrCorruptFrame; a corrupted length prefix is bounded by maxFrame
// instead of allocating whatever the flipped bits say.
func TestFrameCorruptionDetected(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	// Capture one valid frame by writing through a MsgConn to a tap.
	var frame []byte
	done := make(chan struct{})
	go func() {
		frame, _ = io.ReadAll(a)
		close(done)
	}()
	mb := NewMsgConn(b)
	if err := mb.Write(&Envelope{Type: MsgAssign, Seq: 9, Device: 4}, time.Second); err != nil {
		t.Fatal(err)
	}
	b.Close()
	<-done

	send := func(raw []byte) (*Envelope, error) {
		c, d := net.Pipe()
		defer c.Close()
		defer d.Close()
		go func() {
			c.Write(raw)
			c.Close()
		}()
		return NewMsgConn(d).Read(time.Second)
	}

	// The untampered frame parses.
	if env, err := send(frame); err != nil || env.Device != 4 {
		t.Fatalf("clean frame: %+v, %v", env, err)
	}
	// A flipped payload byte fails the CRC.
	tampered := append([]byte(nil), frame...)
	tampered[10] ^= 0x40
	if _, err := send(tampered); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("flipped payload byte: err %v, want ErrCorruptFrame", err)
	}
	// A flipped high bit in the length prefix is refused by maxFrame.
	biglen := append([]byte(nil), frame...)
	biglen[0] |= 0x80
	if _, err := send(biglen); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("corrupt length prefix: err %v, want maxFrame refusal", err)
	}
}

// TestFaultConnDeterministicDrops: the same seed reproduces the same
// drop/duplicate pattern, and a different seed produces a different one.
func TestFaultConnDeterministicDrops(t *testing.T) {
	prof := FaultProfile{DropP: 0.3, DupP: 0.2}
	pattern := func(seed int64) []int {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		fc := NewFaultConn(a, seed, prof)
		counts := make(chan []int, 1)
		go func() {
			var got []int
			buf := make([]byte, 1)
			b.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			for {
				if _, err := b.Read(buf); err != nil {
					break
				}
				got = append(got, int(buf[0]))
			}
			counts <- got
		}()
		for i := 0; i < 40; i++ {
			fc.Write([]byte{byte(i)})
		}
		return <-counts
	}
	p1, p2 := pattern(5), pattern(5)
	if len(p1) == 0 || len(p1) == 40 {
		t.Fatalf("profile injected nothing observable: %d of 40 delivered", len(p1))
	}
	if !equalInts(p1, p2) {
		t.Fatalf("same seed, different fault pattern:\n%v\nvs\n%v", p1, p2)
	}
	if p3 := pattern(6); equalInts(p1, p3) {
		t.Fatal("different seeds reproduced the identical 40-message fault pattern")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFaultConnPartition: after PartitionAfter writes the connection goes
// dark — writes are swallowed without error and reads time out at their
// deadline with a net.Error instead of returning data or EOF.
func TestFaultConnPartition(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := NewFaultConn(a, 1, FaultProfile{PartitionAfter: 2})

	got := make(chan byte, 8)
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
			got <- buf[0]
		}
	}()
	for i := byte(1); i <= 4; i++ {
		if _, err := fc.Write([]byte{i}); err != nil {
			t.Fatalf("write %d into a partition must not error: %v", i, err)
		}
	}
	if x, y := <-got, <-got; x != 1 || y != 2 {
		t.Fatalf("pre-partition writes mangled: %d, %d", x, y)
	}
	select {
	case x := <-got:
		t.Fatalf("byte %d escaped the partition", x)
	case <-time.After(30 * time.Millisecond):
	}
	if !fc.Partitioned() {
		t.Fatal("Partitioned() false after PartitionAfter writes")
	}

	fc.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	_, err := fc.Read(make([]byte, 1))
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("partitioned read returned %v, want a net.Error timeout", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("partitioned read returned before its deadline")
	}
}
