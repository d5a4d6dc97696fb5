package value

import (
	"encoding/json"
	"testing"
)

func TestNewRowAndAccess(t *testing.T) {
	r := NewRow("node", Str("cab17"), "temp", Float(67.4))
	if !r.Get("node").Equal(Str("cab17")) {
		t.Error("Get node")
	}
	if !r.Get("missing").IsNull() {
		t.Error("missing column should be null")
	}
	if !r.Has("temp") || r.Has("missing") {
		t.Error("Has")
	}
	r2 := r.With("rack", Int(17))
	if r.Has("rack") {
		t.Error("With must not mutate the receiver")
	}
	if !r2.Get("rack").Equal(Int(17)) {
		t.Error("With set")
	}
	r3 := r2.Without("temp")
	if r3.Has("temp") || !r2.Has("temp") {
		t.Error("Without")
	}
}

func TestNewRowPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("odd args", func() { NewRow("a") })
	assertPanics("non-string name", func() { NewRow(1, Int(2)) })
	assertPanics("non-value value", func() { NewRow("a", 2) })
}

func TestRowProjectMergeEqual(t *testing.T) {
	r := NewRow("a", Int(1), "b", Int(2), "c", Int(3))
	p := r.Project("a", "c", "zz")
	if len(p) != 2 || !p.Get("a").Equal(Int(1)) || !p.Get("c").Equal(Int(3)) {
		t.Errorf("Project = %v", p)
	}
	m := NewRow("a", Int(1)).Merge(NewRow("b", Int(2)))
	if !m.Equal(NewRow("a", Int(1), "b", Int(2))) {
		t.Errorf("Merge = %v", m)
	}
	if NewRow("a", Int(1)).Equal(NewRow("a", Int(2))) {
		t.Error("unequal rows compare equal")
	}
	if NewRow("a", Int(1)).Equal(NewRow("a", Int(1), "b", Int(2))) {
		t.Error("rows of different size compare equal")
	}
}

func TestRowColumnsSorted(t *testing.T) {
	r := NewRow("z", Int(1), "a", Int(2), "m", Int(3))
	cols := r.Columns()
	want := []string{"a", "m", "z"}
	for i := range want {
		if cols[i] != want[i] {
			t.Fatalf("Columns() = %v", cols)
		}
	}
}

func TestRowString(t *testing.T) {
	r := NewRow("b", Int(2), "a", Int(1))
	if got := r.String(); got != "{a=1, b=2}" {
		t.Errorf("String() = %q", got)
	}
}

func TestRowJSONRoundTrip(t *testing.T) {
	r := NewRow("node", Str("cab17"), "t", TimeNanos(12345), "xs", List(Int(1), Int(2)))
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var got Row
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Errorf("round trip: %v != %v", got, r)
	}
}

func TestRowKeyOnDistinguishes(t *testing.T) {
	a := NewRow("x", Int(1), "y", Int(2))
	b := NewRow("x", Int(1), "y", Int(3))
	cols := []string{"x", "y"}
	if a.KeyOn(cols) == b.KeyOn(cols) {
		t.Error("different rows should (almost surely) key differently")
	}
	if a.KeyStringOn(cols) == b.KeyStringOn(cols) {
		t.Error("key strings must differ")
	}
	// Key restricted to shared column is equal.
	if a.KeyOn([]string{"x"}) != b.KeyOn([]string{"x"}) {
		t.Error("restricted keys should match")
	}
}

// BenchmarkRowMarshalJSON measures the cost of encoding one row through
// encoding/json, which calls Row.MarshalJSON (value.AppendRowJSON) and
// then re-validates the bytes it returns.
func BenchmarkRowMarshalJSON(b *testing.B) {
	r := NewRow(
		"node", Str("cab17"),
		"t", TimeNanos(1500000000123456789),
		"flops", Float(3.75e9),
		"rank", Int(12),
		"alive", Bool(true),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(r); err != nil {
			b.Fatal(err)
		}
	}
}
