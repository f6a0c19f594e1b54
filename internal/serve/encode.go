package serve

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"

	"cup/internal/cache"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// The GET hit body is appended by hand: the shape is fixed, and
// encoding/json's reflection walk, its encoder state and the []EntryJSON
// it needs built first were a fifth of the handler. The bytes are what
// json.NewEncoder(w).Encode(GetResponse{...}) writes — same field order,
// same number formatting, same trailing newline — and a string that
// needs any escaping at all goes through encoding/json itself, so the
// escaping rules live in one place.

// getBuf is a pooled response buffer.
type getBuf struct{ b []byte }

var getBufs = sync.Pool{New: func() any { return &getBuf{b: make([]byte, 0, 512)} }}

// jsonContentType is shared by every response: net/http reads header
// values and never writes to them.
var jsonContentType = []string{"application/json"}

// appendGetResponse appends the GET body for key's entries, TTLs taken
// relative to now. (It and its helpers only ever append to the pooled
// buffer, which has grown to the largest body after the first few
// requests; TestGetHitAllocs pins the handler's allocation count.)
func appendGetResponse(b []byte, key overlay.Key, entries []cache.Entry, now sim.Time) []byte {
	b = append(b, `{"key":`...)
	b = appendJSONString(b, string(key))
	b = append(b, `,"entries":[`...)
	for i := range entries {
		e := &entries[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"replica":`...)
		b = strconv.AppendInt(b, int64(e.Replica), 10)
		b = append(b, `,"addr":`...)
		b = appendJSONString(b, e.Addr)
		b = append(b, `,"ttl_s":`...)
		b = appendJSONFloat(b, float64(e.Expires-now))
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// appendJSONString appends s as a JSON string. Printable ASCII without
// the characters encoding/json escapes (quote, backslash, and <, >, &
// under its default HTML-safe mode) is copied between quotes; anything
// else — control bytes, non-ASCII, invalid UTF-8 — is encoding/json's.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendEscaped(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendEscaped(b []byte, s string) []byte {
	quoted, err := json.Marshal(s)
	if err != nil { // unreachable: every string marshals
		quoted = []byte(`""`)
	}
	return append(b, quoted...)
}

// appendJSONFloat appends f the way encoding/json formats a float64:
// shortest round-trip digits, exponent form only below 1e-6 or from
// 1e21, a two-digit negative exponent trimmed of its leading zero. JSON
// has no non-finite numbers (the encoder refuses them); they cannot
// arise from an expiry minus a clock and are written as null.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
