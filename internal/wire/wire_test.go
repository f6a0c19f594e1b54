package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cup/internal/cache"
	"cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/sim"
)

func sampleUpdate() cup.Update {
	return cup.Update{
		Key:      "movies/inception",
		Type:     cup.Refresh,
		Replica:  3,
		Depth:    7,
		Expires:  1234.5,
		Lifetime: 300,
		QueryID:  0xdeadbeef,
		Entries: []cache.Entry{
			{Key: "movies/inception", Replica: 3, Addr: "198.51.100.7:443", Expires: 1234.5},
			{Key: "movies/inception", Replica: 9, Addr: "203.0.113.9", Expires: 999},
		},
	}
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	out, err := Unmarshal(Marshal(m))
	if err != nil {
		t.Fatalf("round trip of %T: %v", m, err)
	}
	return out
}

func TestQueryRoundTrip(t *testing.T) {
	in := Query{From: 42, Key: "some/key", QueryID: 7}
	if got := roundTrip(t, in); got != in {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	in := UpdateMsg{From: 17, Update: sampleUpdate()}
	got := roundTrip(t, in).(UpdateMsg)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestUpdateNoEntriesRoundTrip(t *testing.T) {
	in := UpdateMsg{From: 1, Update: cup.Update{Key: "k", Type: cup.Delete, Replica: 5, Expires: 10}}
	got := roundTrip(t, in).(UpdateMsg)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
}

func TestClearBitRoundTrip(t *testing.T) {
	if got := roundTrip(t, ClearBit{From: 9, Key: "k"}); got != (ClearBit{From: 9, Key: "k"}) {
		t.Fatalf("clearbit: %+v", got)
	}
}

// Kind 4 once introduced a connection; no kind beyond ClearBit decodes.
func TestUnknownKindRejected(t *testing.T) {
	for _, kind := range []byte{0, 4, 99} {
		if _, err := Unmarshal([]byte{kind, 0, 0, 0, 1}); !errors.Is(err, ErrBadKind) {
			t.Fatalf("kind %d: err = %v, want ErrBadKind", kind, err)
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	b := Marshal(ClearBit{From: 1, Key: "k"})
	if _, err := Unmarshal(append(b, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestTruncationRejectedEverywhere(t *testing.T) {
	full := Marshal(UpdateMsg{From: 17, Update: sampleUpdate()})
	for n := 0; n < len(full); n++ {
		if _, err := Unmarshal(full[:n]); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
}

func TestWriteReadFrame(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		Query{From: 2, Key: "k", QueryID: 3},
		UpdateMsg{From: 4, Update: sampleUpdate()},
		ClearBit{From: 5, Key: "k"},
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("after drain: %v, want EOF", err)
	}
}

// writeCounter counts the Write calls a frame costs: on a socket each is
// a system call and, with TCP_NODELAY, a segment.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestWriteFrameIsOneWrite(t *testing.T) {
	big := sampleUpdate()
	for i := 0; i < 64; i++ { // past WriteFrame's initial capacity
		big.Entries = append(big.Entries, big.Entries[0])
	}
	for _, m := range []Message{ClearBit{From: 1, Key: "k"}, Query{From: 2, Key: "k", QueryID: 3}, UpdateMsg{From: 4, Update: big}} {
		var w writeCounter
		if err := WriteFrame(&w, m); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("%T: %d writes, want 1", m, w.writes)
		}
		if got, err := ReadFrame(&w); err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("%T: read back %+v, %v", m, got, err)
		}
	}
}

func TestAppendFrameReusesBuffer(t *testing.T) {
	msgs := []Message{Query{From: 2, Key: "k", QueryID: 3}, UpdateMsg{From: 4, Update: sampleUpdate()}, ClearBit{From: 5, Key: "k"}}
	var stream, frame []byte
	for _, m := range msgs {
		var err error
		// One encode buffer reused frame after frame, as a TCP peer does.
		if frame, err = AppendFrame(frame[:0], m); err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame...)
	}
	r := bytes.NewReader(stream)
	for _, want := range msgs {
		if got, err := ReadFrame(r); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, %v, want %+v", got, err, want)
		}
	}
	huge := Query{Key: overlay.Key(strings.Repeat("x", 65535))}
	u := UpdateMsg{Update: cup.Update{Key: huge.Key}}
	for i := 0; i < MaxFrame/65535+1; i++ {
		u.Update.Entries = append(u.Update.Entries, cache.Entry{Key: huge.Key})
	}
	if b, err := AppendFrame([]byte("kept"), u); err != ErrFrameTooLarge || string(b) != "kept" {
		t.Fatalf("oversized frame: %q, %v; want the buffer as it was and ErrFrameTooLarge", b[:min(len(b), 8)], err)
	}
}

func TestReadFrameRejectsHugeLength(t *testing.T) {
	var hdr [4]byte
	hdr[0] = 0xFF
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameShortPayload(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10}) // claims 10 bytes
	buf.Write([]byte{1, 2})        // delivers 2
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestOversizeStringPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversize string did not panic")
		}
	}()
	Marshal(Query{Key: overlay.Key(strings.Repeat("x", 70000))})
}

// Property: arbitrary queries and clear-bits survive a round trip.
func TestPropertyQueryRoundTrip(t *testing.T) {
	f := func(from int32, key string, qid uint64) bool {
		if len(key) > 60000 {
			key = key[:60000]
		}
		in := Query{From: overlay.NodeID(from), Key: overlay.Key(key), QueryID: qid}
		out, err := Unmarshal(Marshal(in))
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary updates survive a round trip.
func TestPropertyUpdateRoundTrip(t *testing.T) {
	f := func(from int32, key string, ty uint8, replica int16, depth uint8,
		exp, life float64, addrs []string) bool {
		if len(key) > 1000 {
			key = key[:1000]
		}
		u := cup.Update{
			Key:      overlay.Key(key),
			Type:     cup.UpdateType(ty % 4),
			Replica:  int(replica),
			Depth:    int(depth),
			Expires:  sim.Time(exp),
			Lifetime: sim.Duration(life),
		}
		for i, a := range addrs {
			if len(a) > 1000 {
				a = a[:1000]
			}
			u.Entries = append(u.Entries, cache.Entry{
				Key: u.Key, Replica: i, Addr: a, Expires: sim.Time(exp),
			})
		}
		in := UpdateMsg{From: overlay.NodeID(from), Update: u}
		out, err := Unmarshal(Marshal(in))
		return err == nil && reflect.DeepEqual(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random garbage never panics the decoder.
func TestPropertyGarbageNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if recover() != nil {
				t.Error("decoder panicked")
			}
		}()
		_, _ = Unmarshal(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFramesOverRealTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	want := UpdateMsg{From: 8, Update: sampleUpdate()}
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		done <- WriteFrame(conn, want)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}
