package value

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// Decoder reads the tagged-value wire format (json.go) in one pass: it
// scans the bytes once, validating strict JSON syntax as it goes, and
// writes straight into Row and Value — no intermediate structs, no
// reflection, no second validation pass. It accepts exactly what
// encoding/json accepts for the equivalent struct decode:
//
//   - strict JSON: the RFC 8259 grammar, nesting at most 10000 deep, no
//     trailing bytes; string escapes including \u surrogate pairs, with
//     invalid UTF-8 and unpaired surrogates decoded as U+FFFD;
//   - value fields matched exactly, else case-insensitively ("K" is "k"),
//     unknown fields skipped, duplicate fields resolved last-wins, a null
//     payload read as absent (a null "k" leaves the tag unchanged);
//   - "n" must be an int64 literal (1.0, 1e3 and overflow are rejected),
//     "f" a float64 in range; a float's "s" slot carries NaN/±Inf;
//   - a row is an object of values, or null (a nil Row); a null value is
//     an error.
//
// A Decoder serves one stream or one file and is not safe for concurrent
// use. One from NewDecoder interns column names and short strings in a
// bounded table, so the rows it returns share one copy of each repeated
// name; the zero Decoder does not intern.
type Decoder struct {
	data  []byte
	pos   int
	depth int
	names map[string]string // intern table; nil disables interning
}

const (
	// maxDepth is encoding/json's nesting limit.
	maxDepth = 10000
	// internCap and internLen bound the intern table: at most internCap
	// strings of at most internLen bytes each.
	internCap = 4096
	internLen = 32
)

// NewDecoder returns a decoder with an empty intern table.
func NewDecoder() *Decoder { return &Decoder{names: make(map[string]string)} }

// DecodeRow decodes data, which must hold exactly one row (surrounding
// whitespace allowed). A JSON null decodes to a nil Row.
func (d *Decoder) DecodeRow(data []byte) (Row, error) {
	d.reset(data)
	var r Row
	var err error
	if !d.literal("null") {
		r, err = d.row()
	}
	return r, d.finish(err)
}

// DecodeValue decodes data, which must hold exactly one tagged value.
func (d *Decoder) DecodeValue(data []byte) (Value, error) {
	d.reset(data)
	v, err := d.value()
	return v, d.finish(err)
}

func (d *Decoder) reset(data []byte) {
	d.data, d.pos, d.depth = data, 0, 0
	d.skipSpace()
}

// finish checks for trailing bytes and drops the reference to the input.
func (d *Decoder) finish(err error) error {
	if err == nil {
		d.skipSpace()
		if d.pos < len(d.data) {
			err = d.syntax("end of input")
		}
	}
	d.data = nil
	return err
}

// row decodes an object of tagged values.
func (d *Decoder) row() (Row, error) {
	if err := d.open('{'); err != nil {
		return nil, err
	}
	r := Row{}
	if d.close('}') {
		return r, nil
	}
	for {
		k, err := d.str()
		if err != nil {
			return nil, err
		}
		key := d.intern(k)
		if err := d.colon(); err != nil {
			return nil, err
		}
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		r[key] = v
		more, err := d.more('}')
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
	}
	return r, nil
}

// value decodes one tagged-value object. Payload fields are type-checked
// as they are read; which one is used, and the parse of time and float
// string payloads, waits for the final kind tag. List elements are decoded
// only when the value is a list, from the last "l" seen.
func (d *Decoder) value() (Value, error) {
	if err := d.open('{'); err != nil {
		return Value{}, err
	}
	var (
		tag, s, t, t2      []byte
		n                  int64
		f                  float64
		b                  bool
		has                [len(valueFields)]bool // payloads present, by field
		listPos, listDepth int
		key                []byte
		more               bool
		err                error
	)
	if !d.close('}') {
		for {
			if key, err = d.str(); err != nil {
				return Value{}, err
			}
			if err = d.colon(); err != nil {
				return Value{}, err
			}
			switch field := fieldOf(key); {
			case field < 0:
				err = d.skip()
			case d.literal("null"):
				// A null payload is absent; a null tag leaves the tag as it was.
				has[field] = false
			default:
				has[field] = true
				switch field {
				case fieldK:
					tag, err = d.strField(field)
				case fieldS:
					s, err = d.strField(field)
				case fieldT:
					t, err = d.strField(field)
				case fieldT2:
					t2, err = d.strField(field)
				case fieldN:
					n, err = d.intField()
				case fieldF:
					f, err = d.floatField()
				case fieldB:
					b, err = d.boolField()
				case fieldL:
					if d.peek() != '[' {
						return Value{}, d.typeErr(field, "an array")
					}
					listPos, listDepth = d.pos, d.depth
					err = d.skip()
				}
			}
			if err != nil {
				return Value{}, err
			}
			if more, err = d.more('}'); err != nil {
				return Value{}, err
			}
			if !more {
				break
			}
		}
	}

	kind, ok := kindOf(tag)
	if !ok {
		return Value{}, fmt.Errorf("value: unknown kind %q", tag)
	}
	missing := func() (Value, error) { return Value{}, fmt.Errorf("value: %s payload missing", kind) }
	switch kind {
	case KindBool:
		if !has[fieldB] {
			return missing()
		}
		return Bool(b), nil
	case KindInt:
		if !has[fieldN] {
			return missing()
		}
		return Int(n), nil
	case KindFloat:
		switch {
		case has[fieldF]:
			return Float(f), nil
		case has[fieldS]:
			return parseFloatSlot(s)
		}
		return missing()
	case KindString:
		if !has[fieldS] {
			return missing()
		}
		return Str(d.intern(s)), nil
	case KindTime:
		if !has[fieldT] {
			return missing()
		}
		ns, err := parseTime(t)
		if err != nil {
			return Value{}, err
		}
		return TimeNanos(ns), nil
	case KindSpan:
		if !has[fieldT] || !has[fieldT2] {
			return missing()
		}
		start, err := parseTime(t)
		if err != nil {
			return Value{}, err
		}
		end, err := parseTime(t2)
		if err != nil {
			return Value{}, err
		}
		return Span(start, end), nil
	case KindList:
		if !has[fieldL] {
			return List(), nil
		}
		return d.list(listPos, listDepth)
	}
	return Null(), nil
}

// list decodes the (already validated) array at pos, then restores the
// read position.
func (d *Decoder) list(pos, depth int) (Value, error) {
	resume, resumeDepth := d.pos, d.depth
	d.pos, d.depth = pos, depth
	if err := d.open('['); err != nil {
		return Value{}, err
	}
	vs := []Value{}
	if !d.close(']') {
		for {
			v, err := d.value()
			if err != nil {
				return Value{}, err
			}
			vs = append(vs, v)
			more, err := d.more(']')
			if err != nil {
				return Value{}, err
			}
			if !more {
				break
			}
		}
	}
	d.pos, d.depth = resume, resumeDepth
	return Value{kind: KindList, list: vs}, nil
}

// The fields of a tagged value, indexing valueFields.
const (
	fieldK = iota
	fieldN
	fieldF
	fieldB
	fieldS
	fieldT
	fieldT2
	fieldL
)

// valueFields are the keys of a tagged value's fields.
var valueFields = [...]string{
	fieldK: "k", fieldN: "n", fieldF: "f", fieldB: "b",
	fieldS: "s", fieldT: "t", fieldT2: "t2", fieldL: "l",
}

// fieldOf returns the value field a key selects, or -1 for an unknown key.
// Like encoding/json, an exact match wins and a case-insensitive one is
// the fallback.
func fieldOf(key []byte) int {
	for i, f := range valueFields {
		if string(key) == f {
			return i
		}
	}
	if len(key) <= 3 { // the longest fold of a field name: U+212A KELVIN SIGN
		for i, f := range valueFields {
			if strings.EqualFold(string(key), f) {
				return i
			}
		}
	}
	return -1
}

// parseTime reads an RFC3339 time payload as Unix nanoseconds.
func parseTime(b []byte) (int64, error) {
	t, err := time.Parse(time.RFC3339Nano, string(b))
	if err != nil {
		return 0, err
	}
	return t.UnixNano(), nil
}

// parseFloatSlot reads a float's string payload (NaN/±Inf) through fmt's
// %g scanner.
func parseFloatSlot(s []byte) (Value, error) {
	var f float64
	if _, err := fmt.Sscanf(string(s), "%g", &f); err != nil {
		return Value{}, fmt.Errorf("value: bad float payload %q", s)
	}
	return Float(f), nil
}

func (d *Decoder) strField(field int) ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.typeErr(field, "a string")
	}
	return d.str()
}

func (d *Decoder) intField() (int64, error) {
	num, err := d.numberField(fieldN)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("value: int payload %s is not an int64", num)
	}
	return n, nil
}

func (d *Decoder) floatField() (float64, error) {
	num, err := d.numberField(fieldF)
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return 0, fmt.Errorf("value: float payload %s is out of range", num)
	}
	return f, nil
}

func (d *Decoder) numberField(field int) ([]byte, error) {
	if c := d.peek(); c != '-' && !isDigit(c) {
		return nil, d.typeErr(field, "a number")
	}
	return d.number()
}

func (d *Decoder) boolField() (bool, error) {
	switch {
	case d.literal("true"):
		return true, nil
	case d.literal("false"):
		return false, nil
	}
	return false, d.typeErr(fieldB, "a boolean")
}

func (d *Decoder) typeErr(field int, want string) error {
	return fmt.Errorf("value: field %q must hold %s", valueFields[field], want)
}

// ---- JSON tokens ----

func (d *Decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the next non-space byte without consuming it; 0 at the end.
func (d *Decoder) peek() byte {
	d.skipSpace()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// literal consumes lit if it is the next token.
func (d *Decoder) literal(lit string) bool {
	d.skipSpace()
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// open consumes the opening bracket c, one nesting level deeper.
func (d *Decoder) open(c byte) error {
	if d.peek() != c {
		return d.syntax(fmt.Sprintf("%q", c))
	}
	d.pos++
	if d.depth++; d.depth > maxDepth {
		return d.syntax("nesting at most 10000 deep")
	}
	return nil
}

// close consumes the closing bracket c if it is next.
func (d *Decoder) close(c byte) bool {
	if d.peek() != c {
		return false
	}
	d.pos++
	d.depth--
	return true
}

// more consumes the separator after a member: true after a comma, false
// after the closing bracket c.
func (d *Decoder) more(c byte) (bool, error) {
	switch d.peek() {
	case ',':
		d.pos++
		return true, nil
	case c:
		d.pos++
		d.depth--
		return false, nil
	}
	return false, d.syntax(fmt.Sprintf("',' or %q", c))
}

func (d *Decoder) colon() error {
	if d.peek() != ':' {
		return d.syntax("':'")
	}
	d.pos++
	return nil
}

// skip consumes one JSON value of any type, validating it.
func (d *Decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		if err := d.open('{'); err != nil {
			return err
		}
		if d.close('}') {
			return nil
		}
		for {
			if _, err := d.str(); err != nil {
				return err
			}
			if err := d.colon(); err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
			if more, err := d.more('}'); err != nil || !more {
				return err
			}
		}
	case c == '[':
		if err := d.open('['); err != nil {
			return err
		}
		if d.close(']') {
			return nil
		}
		for {
			if err := d.skip(); err != nil {
				return err
			}
			if more, err := d.more(']'); err != nil || !more {
				return err
			}
		}
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	case d.literal("true"), d.literal("false"), d.literal("null"):
		return nil
	}
	return d.syntax("a value")
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes a JSON number and returns its text.
func (d *Decoder) number() ([]byte, error) {
	start, i := d.pos, d.pos
	digits := func() bool {
		j := i
		for i < len(d.data) && isDigit(d.data[i]) {
			i++
		}
		return i > j
	}
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	switch {
	case i < len(d.data) && d.data[i] == '0':
		i++
	case !digits():
		d.pos = i
		return nil, d.syntax("a digit")
	}
	if i < len(d.data) && d.data[i] == '.' {
		i++
		if !digits() {
			d.pos = i
			return nil, d.syntax("a digit")
		}
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			return nil, d.syntax("a digit")
		}
	}
	d.pos = i
	return d.data[start:i], nil
}

// str consumes a JSON string and returns its unescaped bytes: a slice of
// the input when the string holds no escapes and only valid UTF-8, a fresh
// slice otherwise.
func (d *Decoder) str() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.syntax("a string")
	}
	start := d.pos + 1
	for i := start; i < len(d.data); {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], nil
		case c == '\\':
			return d.strSlow(start, i)
		case c < 0x20:
			d.pos = i
			return nil, d.syntax("no control character in a string")
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				return d.strSlow(start, i)
			}
			i += size
		}
	}
	d.pos = len(d.data)
	return nil, d.syntax("a closing quote")
}

// strSlow finishes a string from i, unescaping into a fresh buffer.
func (d *Decoder) strSlow(start, i int) ([]byte, error) {
	out := make([]byte, 0, i-start+16)
	out = append(out, d.data[start:i]...)
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return out, nil
		case c < 0x20:
			d.pos = i
			return nil, d.syntax("no control character in a string")
		case c == '\\':
			if i+1 >= len(d.data) {
				d.pos = len(d.data)
				return nil, d.syntax("an escape")
			}
			switch e := d.data[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := getu4(d.data[i:])
				if r < 0 {
					d.pos = i
					return nil, d.syntax(`four hex digits after \u`)
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, getu4(d.data[i:])); pair != utf8.RuneError {
						i += 6
						out = utf8.AppendRune(out, pair)
						continue
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.pos = i
				return nil, d.syntax("a valid escape")
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	d.pos = len(d.data)
	return nil, d.syntax("a closing quote")
}

// getu4 decodes a \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// intern returns b as a string, sharing one copy of each short string the
// decoder has seen while its table has room.
func (d *Decoder) intern(b []byte) string {
	if d.names == nil || len(b) > internLen {
		return string(b)
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.names) < internCap {
		d.names[s] = s
	}
	return s
}

func (d *Decoder) syntax(want string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("value: invalid JSON: unexpected end of input, want %s", want)
	}
	return fmt.Errorf("value: invalid JSON at offset %d: unexpected %q, want %s", d.pos, d.data[d.pos], want)
}
