// Package wire defines the binary wire protocol for CUP's two logical
// channels. Messages are length-prefixed frames; the payload is a
// one-byte message type followed by fixed-width fields and
// length-prefixed strings, all big-endian. The codec is hand-rolled on
// encoding/binary (no reflection) so framing errors are explicit and the
// format is stable across Go versions — what a deployed peer-to-peer
// protocol needs.
//
// Frame layout:
//
//	uint32  payload length (excluding itself), ≤ MaxFrame
//	byte    message kind (KindQuery | KindUpdate | KindClearBit)
//	...     kind-specific fields
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"cup/internal/cache"
	"cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// Kind discriminates frames on the wire.
type Kind byte

const (
	// KindQuery travels up a query channel.
	KindQuery Kind = 1
	// KindUpdate travels down an update channel.
	KindUpdate Kind = 2
	// KindClearBit asks the receiver to clear the sender's interest bit.
	KindClearBit Kind = 3
)

// MaxFrame bounds a frame's payload; larger frames are rejected rather
// than buffered, so a corrupt length prefix cannot exhaust memory.
const MaxFrame = 1 << 20

// Common protocol errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated     = errors.New("wire: truncated frame")
	ErrBadKind       = errors.New("wire: unknown message kind")
)

// Query is a search query message (§2.5).
type Query struct {
	From    overlay.NodeID
	Key     overlay.Key
	QueryID uint64
}

// UpdateMsg carries one update (§2.4/§2.6).
type UpdateMsg struct {
	From   overlay.NodeID
	Update cup.Update
}

// ClearBit is the §2.7 control message.
type ClearBit struct {
	From overlay.NodeID
	Key  overlay.Key
}

// Message is any protocol frame.
type Message interface {
	kind() Kind
}

func (Query) kind() Kind     { return KindQuery }
func (UpdateMsg) kind() Kind { return KindUpdate }
func (ClearBit) kind() Kind  { return KindClearBit }

// buffer is a tiny append-based encoder.
type buffer struct{ b []byte }

func (w *buffer) u8(v byte)     { w.b = append(w.b, v) }
func (w *buffer) u16(v uint16)  { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *buffer) u32(v uint32)  { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *buffer) u64(v uint64)  { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *buffer) i32(v int32)   { w.u32(uint32(v)) }
func (w *buffer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *buffer) str(s string) {
	if len(s) > math.MaxUint16 {
		panic(fmt.Sprintf("wire: string of %d bytes exceeds uint16 length prefix", len(s)))
	}
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

// reader is the matching decoder; it fails loudly on truncation.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = ErrTruncated
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}
func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}
func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}
func (r *reader) i32() int32   { return int32(r.u32()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) str() string {
	n := int(r.u16())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// putEntry encodes one index entry.
func putEntry(w *buffer, e cache.Entry) {
	w.str(string(e.Key))
	w.i32(int32(e.Replica))
	w.str(e.Addr)
	w.f64(float64(e.Expires))
}

func getEntry(r *reader) cache.Entry {
	return cache.Entry{
		Key:     overlay.Key(r.str()),
		Replica: int(r.i32()),
		Addr:    r.str(),
		Expires: sim.Time(r.f64()),
	}
}

// Marshal encodes a message payload (without the frame length prefix).
func Marshal(m Message) []byte { return appendPayload(nil, m) }

// appendPayload appends m's payload to b. Calling m.kind() or formatting
// m would make every caller's message escape to the heap.
func appendPayload(b []byte, m Message) []byte {
	w := &buffer{b: b}
	switch v := m.(type) {
	case Query:
		w.u8(byte(KindQuery))
		w.i32(int32(v.From))
		w.str(string(v.Key))
		w.u64(v.QueryID)
	case UpdateMsg:
		w.u8(byte(KindUpdate))
		w.i32(int32(v.From))
		u := v.Update
		w.str(string(u.Key))
		w.u8(byte(u.Type))
		w.i32(int32(u.Replica))
		w.i32(int32(u.Depth))
		w.f64(float64(u.Expires))
		w.f64(float64(u.Lifetime))
		w.u64(u.QueryID)
		if len(u.Entries) > math.MaxUint16 {
			panic("wire: update with more than 65535 entries")
		}
		w.u16(uint16(len(u.Entries)))
		for _, e := range u.Entries {
			putEntry(w, e)
		}
	case ClearBit:
		w.u8(byte(KindClearBit))
		w.i32(int32(v.From))
		w.str(string(v.Key))
	default:
		panic("wire: unknown message type")
	}
	return w.b
}

// Unmarshal decodes one payload produced by Marshal.
func Unmarshal(b []byte) (Message, error) {
	r := &reader{b: b}
	kind := Kind(r.u8())
	var m Message
	switch kind {
	case KindQuery:
		m = Query{
			From:    overlay.NodeID(r.i32()),
			Key:     overlay.Key(r.str()),
			QueryID: r.u64(),
		}
	case KindUpdate:
		v := UpdateMsg{From: overlay.NodeID(r.i32())}
		v.Update.Key = overlay.Key(r.str())
		v.Update.Type = cup.UpdateType(r.u8())
		v.Update.Replica = int(r.i32())
		v.Update.Depth = int(r.i32())
		v.Update.Expires = sim.Time(r.f64())
		v.Update.Lifetime = sim.Duration(r.f64())
		v.Update.QueryID = r.u64()
		n := int(r.u16())
		if n > 0 {
			v.Update.Entries = make([]cache.Entry, 0, min(n, 1024))
			for i := 0; i < n; i++ {
				v.Update.Entries = append(v.Update.Entries, getEntry(r))
				if r.err != nil {
					break
				}
			}
		}
		m = v
	case KindClearBit:
		m = ClearBit{From: overlay.NodeID(r.i32()), Key: overlay.Key(r.str())}
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, kind)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// AppendFrame appends m as one frame — length prefix, then payload — to b.
func AppendFrame(b []byte, m Message) ([]byte, error) {
	at := len(b)
	b = appendPayload(append(b, 0, 0, 0, 0), m)
	n := len(b) - at - 4
	if n > MaxFrame {
		return b[:at], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[at:], uint32(n))
	return b, nil
}

// WriteFrame writes one length-prefixed message to w, in one Write: on
// a socket a frame is one system call and one segment, not a four-byte
// one for the prefix and another for the payload.
func WriteFrame(w io.Writer, m Message) error {
	frame, err := AppendFrame(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed message from r. A *bufio.Reader's
// buffered frame is decoded in place: Unmarshal copies every string.
func ReadFrame(r io.Reader) (Message, error) {
	if br, ok := r.(*bufio.Reader); ok {
		if hdr, err := br.Peek(4); err == nil {
			if n := int(binary.BigEndian.Uint32(hdr)); n <= MaxFrame && 4+n <= br.Size() {
				if frame, err := br.Peek(4 + n); err == nil {
					m, err := Unmarshal(frame[4:])
					br.Discard(4 + n) // buffered: cannot fail
					return m, err
				}
			}
		}
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return Unmarshal(payload)
}
