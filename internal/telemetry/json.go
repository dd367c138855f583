package telemetry

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// The run reply is the hottest JSON on the serve path, so its events are
// appended by hand. The helpers here reproduce encoding/json byte for byte
// (json.Encoder's defaults: HTML escaping on); FuzzEventJSON holds them to
// it. Decoding stays on encoding/json.

// errNonFinite reports a NaN or infinite float, which JSON cannot carry;
// encoding/json fails on it the same way.
var errNonFinite = errors.New("telemetry: json: unsupported value: NaN or ±Inf")

// AppendJSONFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 up,
// with a single-digit negative exponent written as e-7, not e-07.
func AppendJSONFloat(b []byte, f float64) ([]byte, error) {
	if !finite(f) {
		return b, errNonFinite
	}
	return appendFloat(b, f), nil
}

// appendFloat is AppendJSONFloat for a finite f.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
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

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string the way encoding/json does
// with HTML escaping: quotes and backslashes escaped, control bytes as \n,
// \r, \t, \b, \f or \u00XX, <, > and & as \u003c, \u003e and \u0026,
// U+2028 and U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8
// as \ufffd.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendJSON appends the event exactly as encoding/json marshals it, its
// struct tags' omitempty rules included. Like encoding/json, it fails on a
// NaN or infinite float (errNonFinite), appending nothing.
func (e *Event) AppendJSON(b []byte) ([]byte, error) {
	var enc EventEncoder
	return enc.Append(b, e)
}

// EventEncoder appends a sequence of events, each as AppendJSON does, and
// formats a float only when its bits differ from those of the float it
// appended last. A run's stream repeats its floats: the executions of a
// PlanBouquet contour share one budget, and a failed execution spends
// exactly its budget, so most of a reply's floats equal the one before.
// The zero value is ready to use; one encoder serves one stream.
type EventEncoder struct {
	bits uint64   // the last float's bits
	n    int      // the length of its encoding in last; 0 when none
	last [32]byte // its encoding (at most 25 bytes)
}

// Append appends the event exactly as AppendJSON does.
func (enc *EventEncoder) Append(b []byte, e *Event) ([]byte, error) {
	ok := finite(e.Budget) && finite(e.Spent) && finite(e.Learned) && finite(e.Penalty) &&
		finite(e.TotalCost) && finite(e.SubOpt) && finite(e.Guarantee)
	for _, v := range e.Location {
		ok = ok && finite(v)
	}
	if !ok {
		return b, errNonFinite
	}
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(e.Seq), 10)
	b = append(b, `,"kind":`...)
	b = AppendJSONString(b, string(e.Kind))
	b = appendInt(b, `,"contour":`, e.Contour)
	b = append(b, `,"dim":`...)
	b = strconv.AppendInt(b, int64(e.Dim), 10)
	b = appendInt(b, `,"planID":`, e.PlanID)
	b = enc.field(b, `,"budget":`, e.Budget)
	b = enc.field(b, `,"spent":`, e.Spent)
	b = appendTrue(b, `,"completed":true`, e.Completed)
	b = enc.field(b, `,"learned":`, e.Learned)
	b = appendTrue(b, `,"repeat":true`, e.Repeat)
	b = enc.field(b, `,"penalty":`, e.Penalty)
	b = appendString(b, `,"mode":`, e.Mode)
	if len(e.Location) > 0 {
		b = append(b, `,"location":[`...)
		for i, v := range e.Location {
			if i > 0 {
				b = append(b, ',')
			}
			b = enc.float(b, v)
		}
		b = append(b, ']')
	}
	b = appendString(b, `,"detail":`, e.Detail)
	b = appendTrue(b, `,"final":true`, e.Final)
	b = enc.field(b, `,"totalCost":`, e.TotalCost)
	b = enc.field(b, `,"subOpt":`, e.SubOpt)
	b = enc.field(b, `,"guarantee":`, e.Guarantee)
	b = appendString(b, `,"algorithm":`, e.Algorithm)
	b = appendInt(b, `,"cellLo":`, e.CellLo)
	b = appendInt(b, `,"cellHi":`, e.CellHi)
	return append(b, '}'), nil
}

// field appends an omitempty float field (f finite).
func (enc *EventEncoder) field(b []byte, key string, f float64) []byte {
	if f == 0 {
		return b
	}
	return enc.float(append(b, key...), f)
}

// float appends the finite f as appendFloat does, copying the last float's
// bytes when f has its bits.
func (enc *EventEncoder) float(b []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if enc.n > 0 && bits == enc.bits {
		return append(b, enc.last[:enc.n]...)
	}
	at := len(b)
	b = appendFloat(b, f)
	enc.bits, enc.n = bits, 0
	if len(b)-at <= len(enc.last) {
		enc.n = copy(enc.last[:], b[at:])
	}
	return b
}

// appendInt appends an omitempty int field.
func appendInt(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// appendTrue appends an omitempty bool field (field is key and value).
func appendTrue(b []byte, field string, v bool) []byte {
	if !v {
		return b
	}
	return append(b, field...)
}

// appendString appends an omitempty string field.
func appendString(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return AppendJSONString(append(b, key...), s)
}
