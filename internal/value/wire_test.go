package value_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"scrubjay/internal/bench"
	"scrubjay/internal/engine"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// ---- The oracle: the encoding/json codec the one-pass Decoder replaced ----

// oracleWire is the pointer-field struct encoding/json decodes each value
// into (and encodes each value from).
type oracleWire struct {
	K  string            `json:"k"`
	N  *int64            `json:"n,omitempty"`
	F  *float64          `json:"f,omitempty"`
	B  *bool             `json:"b,omitempty"`
	S  *string           `json:"s,omitempty"`
	T  *string           `json:"t,omitempty"`
	T2 *string           `json:"t2,omitempty"`
	L  []json.RawMessage `json:"l,omitempty"`
}

type oracleValue struct{ v value.Value }

func (o oracleValue) MarshalJSON() ([]byte, error) {
	v := o.v
	w := oracleWire{K: v.Kind().String()}
	rfc := func(ns int64) *string {
		s := time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
		return &s
	}
	switch v.Kind() {
	case value.KindBool:
		b := v.BoolVal()
		w.B = &b
	case value.KindInt:
		n := v.IntVal()
		w.N = &n
	case value.KindFloat:
		f := v.FloatVal()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			s := fmt.Sprintf("%g", f)
			w.S = &s
		} else {
			w.F = &f
		}
	case value.KindString:
		s := v.StrVal()
		w.S = &s
	case value.KindTime:
		w.T = rfc(v.TimeNanosVal())
	case value.KindSpan:
		s, e := v.SpanBounds()
		w.T, w.T2 = rfc(s), rfc(e)
	case value.KindList:
		for _, e := range v.ListVal() {
			raw, err := json.Marshal(oracleValue{e})
			if err != nil {
				return nil, err
			}
			w.L = append(w.L, raw)
		}
	}
	return json.Marshal(w)
}

func (o *oracleValue) UnmarshalJSON(data []byte) error {
	var w oracleWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	k, err := value.KindFromString(w.K)
	if err != nil {
		return err
	}
	parse := func(s string) (time.Time, error) { return time.Parse(time.RFC3339Nano, s) }
	switch k {
	case value.KindNull:
		o.v = value.Null()
	case value.KindBool:
		if w.B == nil {
			return fmt.Errorf("value: bool payload missing")
		}
		o.v = value.Bool(*w.B)
	case value.KindInt:
		if w.N == nil {
			return fmt.Errorf("value: int payload missing")
		}
		o.v = value.Int(*w.N)
	case value.KindFloat:
		switch {
		case w.F != nil:
			o.v = value.Float(*w.F)
		case w.S != nil:
			var f float64
			if _, err := fmt.Sscanf(*w.S, "%g", &f); err != nil {
				return fmt.Errorf("value: bad float payload %q", *w.S)
			}
			o.v = value.Float(f)
		default:
			return fmt.Errorf("value: float payload missing")
		}
	case value.KindString:
		if w.S == nil {
			return fmt.Errorf("value: string payload missing")
		}
		o.v = value.Str(*w.S)
	case value.KindTime:
		if w.T == nil {
			return fmt.Errorf("value: time payload missing")
		}
		t, err := parse(*w.T)
		if err != nil {
			return err
		}
		o.v = value.Time(t)
	case value.KindSpan:
		if w.T == nil || w.T2 == nil {
			return fmt.Errorf("value: span payload missing")
		}
		t1, err := parse(*w.T)
		if err != nil {
			return err
		}
		t2, err := parse(*w.T2)
		if err != nil {
			return err
		}
		o.v = value.SpanOf(t1, t2)
	case value.KindList:
		vs := make([]value.Value, len(w.L))
		for i, raw := range w.L {
			var e oracleValue
			if err := json.Unmarshal(raw, &e); err != nil {
				return err
			}
			vs[i] = e.v
		}
		o.v = value.List(vs...)
	}
	return nil
}

func oracleDecodeRow(data []byte) (value.Row, error) {
	var m map[string]oracleValue
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, nil
	}
	r := make(value.Row, len(m))
	for k, v := range m {
		r[k] = v.v
	}
	return r, nil
}

func oracleEncodeRow(r value.Row) ([]byte, error) {
	if r == nil {
		return []byte("null"), nil
	}
	m := make(map[string]oracleValue, len(r))
	for k, v := range r {
		m[k] = oracleValue{v}
	}
	return json.Marshal(m)
}

// ---- Differential checks ----

// checkAgainstOracle decodes data with a fresh Decoder (twice, so the
// intern table and width hint carry state between rows) and with the
// oracle. The Decoder must never accept what the oracle rejects, must
// accept what it accepts (the codec has no exceptions), must decode an
// Equal row, and the row must re-encode to the oracle's bytes and decode
// back Equal.
func checkAgainstOracle(t *testing.T, data []byte) (value.Row, error) {
	t.Helper()
	want, oerr := oracleDecodeRow(data)
	dec := value.NewDecoder()
	got, err := dec.DecodeRow(data)
	switch {
	case oerr != nil && err == nil:
		t.Fatalf("decoder accepted %q, which encoding/json rejects: %v", data, oerr)
	case oerr == nil && err != nil:
		t.Fatalf("decoder rejected %q, which encoding/json accepts: %v", data, err)
	case err != nil:
		return nil, err
	}
	if !got.Equal(want) || (got == nil) != (want == nil) {
		t.Fatalf("decode %q:\n got %v\nwant %v", data, got, want)
	}
	if again, err := dec.DecodeRow(data); err != nil || !again.Equal(got) {
		t.Fatalf("second decode of %q with the same decoder: %v, %v", data, again, err)
	}
	enc := value.AppendRowJSON(nil, got)
	if oenc, err := oracleEncodeRow(got); err != nil || !bytes.Equal(enc, oenc) {
		t.Fatalf("encode %v:\n got %s\nwant %s (%v)", got, enc, oenc, err)
	}
	back, err := value.NewDecoder().DecodeRow(enc)
	if err != nil || !back.Equal(got) {
		t.Fatalf("round trip %s: %v, %v", enc, back, err)
	}
	return got, nil
}

// nest wraps an unknown field holding depth nested arrays into a row.
func nest(depth int) string {
	return `{"a":{"k":"null","x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}}`
}

// wireCases are hand-picked inputs at the edges of the grammar; each says
// whether encoding/json (and so the Decoder) accepts it.
var wireCases = []struct {
	in     string
	accept bool
}{
	{`null`, true},
	{" \t\r\n{} \n", true},
	{`{"a":{"k":"int","n":-9223372036854775808}}`, true},
	{`{"a":{"K":"int","N":7}}`, true},                                         // struct fields match case-insensitively
	{`{"a":{"\u212a":"string","\u017f":"kelvin, long s"}}`, true},             // U+212A folds to k, U+017F to s
	{`{"a":{"k":"int","n":1,"n":2},"a":{"k":"bool","b":false}}`, true},        // duplicates: last wins
	{`{"a":{"k":"int","n":null,"n":3,"b":null}}`, true},                       // null payload reads as absent
	{`{"a":{"k":"int","k":null,"n":3}}`, true},                                // a null tag leaves the tag set
	{`{"a":{"k":"int","n":1,"zz":[1,{"x":null},"\u00e9"],"t":"junk"}}`, true}, // unknown and unused fields
	{`{"a":{"k":"int","n":1,"l":[5,null]}}`, true},                            // an unused list is never decoded
	{`{"a":{"k":"float","s":"NaN"},"b":{"k":"float","s":"+Inf"},"c":{"k":"float","s":"-inf"}}`, true},
	{`{"a":{"k":"float","f":1e308,"s":"ignored"},"b":{"k":"float","f":-0},"c":{"k":"float","f":1E-400}}`, true},
	{`{"a":{"k":"float","s":"1.5e3"}}`, true},
	{`{"a":{"k":"string","s":"\ud83d\ude00 \ud800 \udc00x \ud800\u0041 \u00e9\/\b\f\n\r\t\"\\"}}`, true},
	{"{\"a\":{\"k\":\"string\",\"s\":\"bad \xff\xfe utf8 \xed\xa0\x80 \x7f\"}}", true},
	{`{"\u00e9\"\u0000":{"k":"null","n":1}}`, true},
	{`{"a":{"k":"list","l":null},"b":{"k":"list"},"c":{"k":"list","l":[]}}`, true},
	{`{"a":{"k":"list","l":[{"k":"int","n":1},{"k":"list","l":[{"k":"null"}]}]}}`, true},
	{`{"a":{"k":"list","l":[{"k":"bogus"}],"l":[{"k":"int","n":2}]}}`, true}, // only the last list is decoded
	{`{"a":{"k":"span","t":"2017-01-01T00:00:01Z","t2":"2017-01-01T00:00:00.5Z"}}`, true},
	{`{"a":{"k":"time","t":"2017-01-01T00:00:00+02:00"},"b":{"k":"time","t":"0001-01-01T00:00:00Z"}}`, true},
	{nest(9998), true}, // row, value, then arrays: exactly 10000 deep

	{``, false},
	{`nul`, false},
	{`[]`, false},
	{`"x"`, false},
	{`{'a':1}`, false},
	{`{"a":{"k":"int","n":1}`, false},
	{`{"a":{"k":"int","n":1}} x`, false},
	{`{"a":{"k":"int","n":1},}`, false},
	{`{"a":null}`, false},
	{`{"a":{}}`, false},
	{`{"a":{"k":"INT","n":1}}`, false},
	{`{"a":{"k":5}}`, false},
	{`{"a":{"k":"int"}}`, false},
	{`{"a":{"k":"int","n":1.0}}`, false},
	{`{"a":{"k":"int","n":1e3}}`, false},
	{`{"a":{"k":"int","n":9223372036854775808}}`, false},
	{`{"a":{"k":"int","n":"1"}}`, false},
	{`{"a":{"k":"int","n":01}}`, false},
	{`{"a":{"k":"int","n":-}}`, false},
	{`{"a":{"k":"int","n":1.}}`, false},
	{`{"a":{"k":"int","n":1,"f":1e400}}`, false}, // type errors count even on unused fields
	{`{"a":{"k":"int","n":1,"b":"true"}}`, false},
	{`{"a":{"k":"int","n":1,"zz":[1,]}}`, false},
	{`{"a":{"k":"int","n":1,"zz":tru}}`, false},
	{`{"a":{"k":"float","s":"x"}}`, false},
	{`{"a":{"k":"string","s":"\q"}}`, false},
	{`{"a":{"k":"string","s":"\u12"}}`, false},
	{"{\"a\":{\"k\":\"string\",\"s\":\"\x01\"}}", false},
	{`{"a":{"k":"time","t":"yesterday"}}`, false},
	{`{"a":{"k":"span","t":"2017-01-01T00:00:00Z"}}`, false},
	{`{"a":{"k":"list","l":[null]}}`, false},
	{`{"a":{"k":"list","l":[5]}}`, false},
	{`{"a":{"k":"list","l":{}}}`, false},
	{nest(9999), false}, // 10001 deep
}

func TestDecodeRowMatchesOracle(t *testing.T) {
	for _, c := range wireCases {
		_, err := checkAgainstOracle(t, []byte(c.in))
		if (err == nil) != c.accept {
			in := c.in
			if len(in) > 80 {
				in = in[:80] + "…"
			}
			t.Errorf("%q: err = %v, want accept=%v", in, err, c.accept)
		}
	}
}

// TestPayloadMissingErrors pins the error text for every kind whose
// payload is required.
func TestPayloadMissingErrors(t *testing.T) {
	for _, k := range []string{"bool", "int", "float", "string", "time", "span"} {
		var v value.Value
		err := json.Unmarshal([]byte(`{"k":"`+k+`","x":1}`), &v)
		if want := "value: " + k + " payload missing"; err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", k, err, want)
		}
	}
}

// edgeRows are the rows TestAppendRowJSONEdgeCases (internal/frame) pins.
func edgeRows() []value.Row {
	return []value.Row{
		{
			"f1": value.Float(1e-7), "f2": value.Float(1e21), "f3": value.Float(-2.5e-9),
			"f4": value.Float(0.0), "f5": value.Float(math.Copysign(0, -1)),
			"f6": value.Float(math.Inf(-1)), "f7": value.Float(math.NaN()),
			"f8": value.Float(123456789.123456789),
		},
		{
			"<key>&": value.Str("<script>&\u2028\u2029\xff"),
			"t1":     value.TimeNanos(0),
			"t2":     value.TimeNanos(1500000000123456789),
			"sp":     value.Span(10, 1e9),
			"l":      value.List(value.Null(), value.Float(math.NaN()), value.Str("<>")),
			"n":      value.Null(),
			"b":      value.Bool(true),
			"e":      value.List(),
		},
	}
}

// figRows returns a few source and result rows of the paper's Fig-5 and
// Fig-7 queries at a small scale.
func figRows(t testing.TB) []value.Row {
	cfg := bench.DefaultCaseStudyConfig()
	cfg.Racks, cfg.NodesPerRack, cfg.AMGRack, cfg.DAT1DurationSec = 2, 4, 1, 600
	cfg.Partitions = 2
	ctx := rdd.NewContext(2)
	dict := semantics.DefaultDictionary()
	var rows []value.Row
	run := func(cat pipeline.Catalog, schemas map[string]semantics.Schema, q engine.Query) {
		for _, name := range []string{"job_queue_log", "node_layout", "rack_temperatures", "papi", "ipmi", "cpu_specs"} {
			if ds, ok := cat[name]; ok {
				rows = append(rows, ds.Rows().Take(2)...)
			}
		}
		plan, err := engine.New(dict, schemas, engine.DefaultOptions()).Solve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pipeline.Execute(context.Background(), ctx, plan, cat, dict, pipeline.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, res.Rows().Take(3)...)
	}
	cat, schemas, _ := bench.DAT1Catalog(ctx, cfg)
	run(cat, schemas, bench.Fig5Query())
	cat, schemas, _ = bench.DAT2Catalog(ctx, cfg)
	run(cat, schemas, bench.Fig7Query())
	return rows
}

// FuzzDecodeRowJSON differentially fuzzes the one-pass Decoder against
// the encoding/json oracle (see checkAgainstOracle), seeded with the Fig-5
// and Fig-7 rows, the frame encoder's edge-case rows, and wireCases.
func FuzzDecodeRowJSON(f *testing.F) {
	for _, r := range append(figRows(f), edgeRows()...) {
		f.Add(value.AppendRowJSON(nil, r))
	}
	for _, c := range wireCases {
		f.Add([]byte(c.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data)
	})
}

// randomRow draws a row of arbitrary values: nasty (but valid UTF-8 —
// invalid bytes decode as U+FFFD) strings, non-finite floats, extreme ints
// and times, and nested (also empty) lists.
func randomRow(rng *rand.Rand) value.Row {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	var gen func(depth int) value.Value
	gen = func(depth int) value.Value {
		switch rng.Intn(9) {
		case 0:
			return value.Null()
		case 1:
			return value.Bool(rng.Intn(2) == 0)
		case 2:
			return value.Int(rng.Int63() - rng.Int63())
		case 3:
			return value.Float(math.Float64frombits(rng.Uint64()))
		case 4:
			return value.Float([]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1e21, 1e-7, -2.5e-9}[rng.Intn(7)])
		case 5:
			return value.Str(pick("", "cab17", "<&>", "\u2028\x00\b\"\\", "é😀", "\ufffd"))
		case 6:
			return value.TimeNanos(rng.Int63() - rng.Int63())
		case 7:
			return value.Span(rng.Int63(), rng.Int63())
		}
		if depth == 0 {
			return value.List()
		}
		vs := make([]value.Value, rng.Intn(3))
		for i := range vs {
			vs[i] = gen(depth - 1)
		}
		return value.List(vs...)
	}
	r := value.Row{}
	for i := rng.Intn(6); i > 0; i-- {
		r[pick("node", "t", "<k>", "", "é", "x\ty")] = gen(2)
	}
	return r
}

// TestCodecRoundTripProperty: every encoder output matches encoding/json's
// bytes and decodes back Equal (NaN payloads compare by bits, so a
// non-canonical NaN decodes to the canonical one).
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		r := randomRow(rng)
		for k, v := range r {
			if f := v.FloatVal(); v.Kind() == value.KindFloat && math.IsNaN(f) {
				r[k] = value.Float(math.NaN())
			}
		}
		data := value.AppendRowJSON(nil, r)
		if got, err := checkAgainstOracle(t, data); err != nil || !got.Equal(r) {
			t.Fatalf("round trip %v -> %s -> %v, %v", r, data, got, err)
		}
	}
}
