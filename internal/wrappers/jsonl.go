package wrappers

import (
	"bufio"
	"fmt"
	"os"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/value"
)

// readJSONL loads a JSON-lines file of tagged-value rows plus its schema
// sidecar. This is ScrubJay's lossless interchange format: every value kind
// round-trips exactly.
func readJSONL(ctx *rdd.Context, src Source) (*dataset.Dataset, error) {
	schema, err := LoadSchema(src.Path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(src.Path)
	if err != nil {
		return nil, fmt.Errorf("wrappers: jsonl: %w", err)
	}
	defer f.Close()
	var rows []value.Row
	dec := value.NewDecoder()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		row, err := dec.DecodeRow(text)
		if err != nil {
			return nil, fmt.Errorf("wrappers: jsonl %s line %d: %w", src.Path, line, err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("wrappers: jsonl %s: %w", src.Path, err)
	}
	return dataset.FromRows(ctx, datasetName(src), rows, schema, src.Partitions), nil
}

// writeJSONL stores a dataset as one tagged-JSON row per line plus a schema
// sidecar.
func writeJSONL(ds *dataset.Dataset, dst Source) error {
	if err := SaveSchema(dst.Path, ds.Schema()); err != nil {
		return err
	}
	f, err := os.Create(dst.Path)
	if err != nil {
		return fmt.Errorf("wrappers: jsonl: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	var line []byte
	for _, row := range ds.Collect() {
		line = append(value.AppendRowJSON(line[:0], row), '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return w.Flush()
}
