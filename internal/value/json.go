package value

import (
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// The tagged-value wire format. A Value travels as a JSON object holding a
// kind tag and at most one payload field, in this field order:
//
//	{"k":"null"}
//	{"k":"bool","b":true}
//	{"k":"int","n":-5}
//	{"k":"float","f":2.5}         NaN/±Inf: {"k":"float","s":"NaN"}
//	{"k":"string","s":"cab17"}
//	{"k":"time","t":"2017-03-27T16:43:27.123456789Z"}
//	{"k":"span","t":"…","t2":"…"}
//	{"k":"list","l":[…]}          the empty list: {"k":"list"}
//
// The kind tag keeps the int/float/time distinctions that raw JSON numbers
// would lose. A Row is a JSON object of tagged values with its keys in
// sorted order. The bytes are exactly what encoding/json renders for the
// equivalent struct (shortest float form, HTML-safe string escaping), so
// rows embed unchanged in any encoding/json document. AppendJSON and
// AppendRowJSON are the one encoder; Decoder (decode.go) is its inverse.

// MarshalJSON encodes the value with an explicit kind tag.
func (v Value) MarshalJSON() ([]byte, error) { return AppendJSON(nil, v), nil }

// UnmarshalJSON decodes the wire form produced by MarshalJSON.
func (v *Value) UnmarshalJSON(data []byte) error {
	var d Decoder
	got, err := d.DecodeValue(data)
	if err != nil {
		return err
	}
	*v = got
	return nil
}

// MarshalJSON encodes the row as a JSON object of tagged values; a nil row
// encodes as null.
func (r Row) MarshalJSON() ([]byte, error) { return AppendRowJSON(nil, r), nil }

// UnmarshalJSON decodes the object form produced by MarshalJSON.
func (r *Row) UnmarshalJSON(data []byte) error {
	var d Decoder
	got, err := d.DecodeRow(data)
	if err != nil {
		return err
	}
	*r = got
	return nil
}

// AppendRowJSON appends r in the wire format to dst: an object with keys
// in sorted order, or null for a nil row.
func AppendRowJSON(dst []byte, r Row) []byte {
	if r == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '{')
	for i, k := range r.Columns() {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, k)
		dst = append(dst, ':')
		dst = AppendJSON(dst, r[k])
	}
	return append(dst, '}')
}

// AppendJSON appends v in the tagged-value wire format to dst.
func AppendJSON(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, `{"k":"null"}`...)
	case KindBool:
		if v.num != 0 {
			return append(dst, `{"k":"bool","b":true}`...)
		}
		return append(dst, `{"k":"bool","b":false}`...)
	case KindInt:
		dst = append(dst, `{"k":"int","n":`...)
		dst = strconv.AppendInt(dst, v.num, 10)
		return append(dst, '}')
	case KindFloat:
		return appendFloatJSON(dst, math.Float64frombits(uint64(v.num)))
	case KindString:
		dst = append(dst, `{"k":"string","s":`...)
		dst = AppendJSONString(dst, v.str)
		return append(dst, '}')
	case KindTime:
		dst = append(dst, `{"k":"time","t":"`...)
		dst = appendRFC3339(dst, v.num)
		return append(dst, '"', '}')
	case KindSpan:
		dst = append(dst, `{"k":"span","t":"`...)
		dst = appendRFC3339(dst, v.num)
		dst = append(dst, `","t2":"`...)
		dst = appendRFC3339(dst, v.num2)
		return append(dst, '"', '}')
	default: // list; an empty payload is omitted, as encoding/json's omitempty does
		if len(v.list) == 0 {
			return append(dst, `{"k":"list"}`...)
		}
		dst = append(dst, `{"k":"list","l":[`...)
		for i, e := range v.list {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSON(dst, e)
		}
		return append(dst, ']', '}')
	}
}

// appendFloatJSON renders a float value. Finite floats use encoding/json's
// float formatting: shortest round-trip form, 'f' format unless the
// magnitude calls for 'e', with the exponent's leading zero trimmed.
// NaN/Inf, which JSON numbers cannot carry, travel in the string slot
// spelled as fmt's %g verb renders them ("NaN", "+Inf", "-Inf"), appended
// directly so the non-finite path allocates nothing.
func appendFloatJSON(dst []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(dst, `{"k":"float","s":"NaN"}`...)
	case math.IsInf(f, 1):
		return append(dst, `{"k":"float","s":"+Inf"}`...)
	case math.IsInf(f, -1):
		return append(dst, `{"k":"float","s":"-Inf"}`...)
	}
	dst = append(dst, `{"k":"float","f":`...)
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// encoding/json cleans e-09 to e-9.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return append(dst, '}')
}

// appendRFC3339 renders Unix nanoseconds as UTC RFC3339Nano — the time
// wire format. No output byte needs JSON escaping.
func appendRFC3339(dst []byte, nanos int64) []byte {
	return time.Unix(0, nanos).UTC().AppendFormat(dst, time.RFC3339Nano)
}

// AppendJSONString appends s as a JSON string the way encoding/json's
// default (HTML-escaping) encoder renders it: quotes, backslashes, control
// characters, <, >, &, invalid UTF-8, and U+2028/U+2029 are escaped;
// everything else passes through.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// jsonSafe reports whether an ASCII byte passes through encoding/json's
// HTML-escaping encoder unescaped.
func jsonSafe(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}
