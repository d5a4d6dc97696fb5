package frame

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"scrubjay/internal/value"
)

// oracleCell renders a value through encoding/json's reflection encoder as
// a struct of optional payload fields — the wire format's definition,
// independent of the value package's appenders.
type oracleCell struct{ v value.Value }

func (o oracleCell) MarshalJSON() ([]byte, error) {
	type wire struct {
		K  string            `json:"k"`
		N  *int64            `json:"n,omitempty"`
		F  *float64          `json:"f,omitempty"`
		B  *bool             `json:"b,omitempty"`
		S  *string           `json:"s,omitempty"`
		T  *string           `json:"t,omitempty"`
		T2 *string           `json:"t2,omitempty"`
		L  []json.RawMessage `json:"l,omitempty"`
	}
	v := o.v
	w := wire{K: v.Kind().String()}
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
			raw, err := json.Marshal(oracleCell{e})
			if err != nil {
				return nil, err
			}
			w.L = append(w.L, raw)
		}
	}
	return json.Marshal(w)
}

// oracleRowJSON is encoding/json's rendering of a row as a map of cells.
func oracleRowJSON(t *testing.T, r value.Row) string {
	t.Helper()
	m := make(map[string]oracleCell, len(r))
	for k, v := range r {
		m[k] = oracleCell{v}
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestAppendRowJSONMatches is the property that keeps columnar NDJSON
// streaming honest: for arbitrary rows — nasty strings, NaN/Inf floats,
// explicit nulls, lists, absent cells — AppendRowJSON must produce exactly
// the bytes encoding/json produces for the boxed value.Row.
func TestAppendRowJSONMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rows := randRows(rng, 1+rng.Intn(10))
		f := FromRows(rows)
		keys := f.EncodedKeys()
		for i, r := range rows {
			want := oracleRowJSON(t, r)
			got := f.AppendRowJSON(nil, i, keys)
			if string(got) != want {
				t.Fatalf("trial %d row %d:\n got %s\nwant %s", trial, i, got, want)
			}
		}
	}
}

// TestAppendRowJSONEdgeCases pins the encodings that are easy to get
// subtly wrong: float formats at the e/f boundary, exponent trimming,
// HTML-escaped keys, RFC3339Nano truncation, and the empty list (whose
// payload encoding/json omits).
func TestAppendRowJSONEdgeCases(t *testing.T) {
	rows := []value.Row{
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
			"el":     value.List(value.List(), value.Int(-1)),
		},
	}
	f := FromRows(rows)
	keys := f.EncodedKeys()
	for i, r := range rows {
		want := oracleRowJSON(t, r)
		got := f.AppendRowJSON(nil, i, keys)
		if string(got) != want {
			t.Fatalf("row %d:\n got %s\nwant %s", i, got, want)
		}
		if again := value.AppendRowJSON(nil, r); string(again) != want {
			t.Fatalf("row %d: value.AppendRowJSON:\n got %s\nwant %s", i, again, want)
		}
	}
}
