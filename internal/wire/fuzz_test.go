package wire

import (
	"bytes"
	"testing"

	"cup/internal/cache"
	"cup/internal/cup"
)

// FuzzWire throws arbitrary bytes at Unmarshal and pins the codec's
// canonical-encoding property: any payload Unmarshal accepts must
// re-Marshal to the identical bytes (the encoding has no redundant
// representations — every field is fixed-width or length-prefixed and
// trailing bytes are rejected), and the re-encoded payload must decode
// again. Byte-level comparison sidesteps NaN: a fuzzed Expires can
// carry any NaN bit pattern, which reflect.DeepEqual would call
// unequal even when the codec preserved it perfectly.
func FuzzWire(f *testing.F) {
	// Structured seeds: one valid frame per message kind, plus mutants
	// the fuzzer can splice (truncation, bad kind, trailing garbage).
	seeds := []Message{
		ClearBit{From: 7, Key: ""},
		Query{From: 3, Key: "movies/inception", QueryID: 99},
		ClearBit{From: 12, Key: "k"},
		UpdateMsg{From: 5, Update: cup.Update{
			Key: "movies/inception", Type: cup.Append, Replica: 2, Depth: 3,
			Expires: 360.5, Lifetime: 300, QueryID: 41,
			Entries: []cache.Entry{
				{Key: "movies/inception", Replica: 0, Addr: "198.51.100.1", Expires: 360.5},
				{Key: "movies/inception", Replica: 1, Addr: "198.51.100.2", Expires: 420},
			},
		}},
		UpdateMsg{From: 1, Update: cup.Update{Key: "", Type: cup.Delete}},
	}
	for _, m := range seeds {
		f.Add(Marshal(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Add(append(Marshal(ClearBit{From: 1, Key: "k"}), 0x00)) // trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		out := Marshal(m)
		if !bytes.Equal(out, data) {
			t.Fatalf("non-canonical encoding:\n accepted % x\nre-encoded % x", data, out)
		}
		m2, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v (% x)", err, out)
		}
		if out2 := Marshal(m2); !bytes.Equal(out, out2) {
			t.Fatalf("second round trip diverged:\n% x\n% x", out, out2)
		}
		// The framed transport must carry the same payload intact.
		if len(out) <= MaxFrame {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, m); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
			m3, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			if !bytes.Equal(Marshal(m3), out) {
				t.Fatal("frame round trip diverged")
			}
		}
	})
}
