package value

import (
	"encoding/json"
	"fmt"
	"testing"
	"unsafe"
)

// TestDecoderInterning: one decoder shares a single copy of each repeated
// column name and short string across the rows it returns, and its table
// stays within internCap entries of at most internLen bytes.
func TestDecoderInterning(t *testing.T) {
	d := NewDecoder()
	line := []byte(`{"node":{"k":"string","s":"cab17"},"t":{"k":"int","n":1}}`)
	a, err := d.DecodeRow(line)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.DecodeRow(line)
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := a["node"].StrVal(), b["node"].StrVal(); unsafe.StringData(sa) != unsafe.StringData(sb) {
		t.Error("short string payload not shared between rows")
	}
	for k := range a {
		for k2 := range b {
			if k == k2 && unsafe.StringData(k) != unsafe.StringData(k2) {
				t.Errorf("column name %q not shared between rows", k)
			}
		}
	}

	long := fmt.Sprintf(`{"c":{"k":"string","s":"%040d"}}`, 7)
	x, _ := d.DecodeRow([]byte(long))
	y, _ := d.DecodeRow([]byte(long))
	if unsafe.StringData(x["c"].StrVal()) == unsafe.StringData(y["c"].StrVal()) {
		t.Errorf("strings over %d bytes must not be interned", internLen)
	}

	for i := 0; i < 2*internCap; i++ {
		if _, err := d.DecodeRow([]byte(fmt.Sprintf(`{"c%d":{"k":"null"}}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.names) != internCap {
		t.Errorf("intern table holds %d strings, want the %d cap", len(d.names), internCap)
	}
	for s := range d.names {
		if len(s) > internLen {
			t.Errorf("interned %d-byte string", len(s))
		}
	}
}

// benchRowLine is one Fig-5-shaped result row in the wire format.
var benchRowLine = []byte(`{"heat":{"k":"float","f":3.0625},"job_id":{"k":"string","s":"job-00017"},` +
	`"job_name":{"k":"string","s":"AMG"},"node":{"k":"string","s":"r02n07"},"rack":{"k":"int","n":2},` +
	`"timespan_exploded":{"k":"time","t":"1970-01-01T00:40:00Z"},` +
	`"timespan":{"k":"span","t":"1970-01-01T00:10:00Z","t2":"1970-01-01T01:00:00Z"}}`)

func BenchmarkDecodeRow(b *testing.B) {
	d := NewDecoder()
	b.ReportAllocs()
	b.SetBytes(int64(len(benchRowLine)))
	for i := 0; i < b.N; i++ {
		if _, err := d.DecodeRow(benchRowLine); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRowEncodingJSON is the same row through encoding/json,
// which reaches the Decoder via Row.UnmarshalJSON after its own pass.
func BenchmarkDecodeRowEncodingJSON(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(benchRowLine)))
	for i := 0; i < b.N; i++ {
		var r Row
		if err := json.Unmarshal(benchRowLine, &r); err != nil {
			b.Fatal(err)
		}
	}
}
