package frame

import "scrubjay/internal/value"

// NDJSON emission straight out of column vectors. The server streams query
// results as JSON lines. AppendRowJSON produces byte-for-byte what
// value.AppendRowJSON renders for the equivalent value.Row — same sorted
// key order, same escaping, same float formatting, because every cell goes
// through the same value.AppendJSON — without materializing the row, so a
// columnar result frame streams with zero per-row map allocations.
// TestAppendRowJSONMatches holds the bytes equal to encoding/json's.

// EncodedKeys precomputes the JSON-encoded column-name keys (quoted,
// escaped, colon-terminated) in canonical column order. Compute once per
// frame, pass to every AppendRowJSON call.
func (f *Frame) EncodedKeys() [][]byte {
	keys := make([][]byte, len(f.cols))
	for i := range f.cols {
		keys[i] = append(value.AppendJSONString(nil, f.cols[i].name), ':')
	}
	return keys
}

// AppendRowJSON appends row i of the frame in the tagged-value wire format
// to dst. keys must come from EncodedKeys on the same frame.
func (f *Frame) AppendRowJSON(dst []byte, i int, keys [][]byte) []byte {
	dst = append(dst, '{')
	first := true
	for j := range f.cols {
		c := &f.cols[j]
		if !c.Present(i) {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, keys[j]...)
		dst = value.AppendJSON(dst, c.Value(i))
	}
	return append(dst, '}')
}
