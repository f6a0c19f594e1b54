package wire

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"testing"

	"cup/internal/overlay"
)

// TestAppendFrameAllocatesNothing pins the send path's encode: a Query
// built field by field, as the TCP link builds one from its message, and
// framed into a reused buffer costs no allocation.
func TestAppendFrameAllocatesNothing(t *testing.T) {
	var buf []byte
	from, key, qid := overlay.NodeID(3), overlay.Key("some/key"), uint64(0)
	frame := func() {
		qid++
		var err error
		if buf, err = AppendFrame(buf[:0], Query{From: from, Key: key, QueryID: qid}); err != nil {
			t.Fatal(err)
		}
	}
	frame() // grow the buffer once
	if n := testing.AllocsPerRun(1000, frame); n != 0 {
		t.Errorf("AppendFrame of a Query into a reused buffer: %g allocations, want 0", n)
	}
}

// TestReadFrameFromBufferedReader: a *bufio.Reader is decoded in its
// buffer when the frame fits and read as before when it does not; both
// give what any other reader gives, errors included.
func TestReadFrameFromBufferedReader(t *testing.T) {
	big := sampleUpdate()
	for i := 0; i < 64; i++ { // past a 16-byte buffer and a 4096-byte one
		big.Entries = append(big.Entries, big.Entries[0])
	}
	msgs := []Message{
		Query{From: 2, Key: "k", QueryID: 3},
		UpdateMsg{From: 4, Update: sampleUpdate()},
		UpdateMsg{From: 4, Update: big},
		ClearBit{From: 5, Key: "k"},
	}
	var stream []byte
	for _, m := range msgs {
		var err error
		if stream, err = AppendFrame(stream, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, size := range []int{16, 64, 4096} {
		r := bufio.NewReaderSize(bytes.NewReader(stream), size)
		for _, want := range msgs {
			if got, err := ReadFrame(r); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("buffer %d: got %+v, %v, want %+v", size, got, err, want)
			}
		}
		if _, err := ReadFrame(r); err != io.EOF {
			t.Fatalf("buffer %d: after drain: %v, want EOF", size, err)
		}
		// Every truncation fails as it does on an unbuffered reader.
		for cut := 1; cut < len(stream); cut += 7 {
			plain, buffered := bytes.NewReader(stream[:cut]), bufio.NewReaderSize(bytes.NewReader(stream[:cut]), size)
			for {
				_, werr := ReadFrame(plain)
				_, gerr := ReadFrame(buffered)
				if werr != gerr {
					t.Fatalf("buffer %d, stream cut at %d: err %v, want %v", size, cut, gerr, werr)
				}
				if werr != nil {
					break
				}
			}
		}
	}
}

// BenchmarkFrame is the wire layer's row: one frame encoded into a
// reused buffer and decoded through a bufio.Reader, as the TCP link does.
func BenchmarkFrame(b *testing.B) {
	for _, c := range []struct {
		name string
		msg  Message
	}{
		{"query", Query{From: 3, Key: "some/key", QueryID: 7}},
		{"update", UpdateMsg{From: 3, Update: sampleUpdate()}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var (
				buf []byte
				src bytes.Reader
				err error
			)
			r := bufio.NewReader(&src)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if buf, err = AppendFrame(buf[:0], c.msg); err != nil {
					b.Fatal(err)
				}
				src.Reset(buf)
				r.Reset(&src)
				if sink, err = ReadFrame(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var sink Message
