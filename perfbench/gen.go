package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"scrubjay/internal/bench"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/wrappers"
)

// inputs is a generated catalog directory: one JSONL file (plus schema
// sidecar) per dataset, exactly as `sjgen -format jsonl` writes it.
type inputs struct {
	Dir   string
	Files map[string]string // dataset name -> data file
	Rows  map[string]int64
	Bytes int64 // data + sidecar bytes on disk
}

func (in inputs) names() []string {
	out := make([]string, 0, len(in.Files))
	for n := range in.Files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// generate writes the seeded DAT-1 (dat=1) or DAT-2 (dat=2) catalog into
// dir through the same public functions sjgen uses: bench.DAT1Catalog /
// bench.DAT2Catalog and wrappers.Write. Only the files reach the system
// under test.
func generate(dir string, dat int, sc scale, seed int64) (inputs, error) {
	if err := os.RemoveAll(dir); err != nil {
		return inputs{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return inputs{}, err
	}
	cfg := bench.DefaultCaseStudyConfig()
	cfg.Racks = sc.Racks
	cfg.NodesPerRack = sc.NodesPerRack
	cfg.AMGRack = sc.AMG
	cfg.DAT1DurationSec = sc.DAT1Seconds
	cfg.DAT2RunSec = sc.DAT2RunSec
	cfg.DAT2GapSec = sc.DAT2GapSec
	cfg.Seed = seed
	ctx := rdd.NewContext(0)
	var cat pipeline.Catalog
	switch dat {
	case 1:
		cat, _, _ = bench.DAT1Catalog(ctx, cfg)
	case 2:
		cat, _, _ = bench.DAT2Catalog(ctx, cfg)
	default:
		return inputs{}, fmt.Errorf("unknown DAT %d", dat)
	}
	in := inputs{Dir: dir, Files: map[string]string{}, Rows: map[string]int64{}}
	for name, ds := range cat {
		path := filepath.Join(dir, name+".jsonl")
		if err := wrappers.Write(ds, wrappers.Source{Format: "jsonl", Path: path}); err != nil {
			return inputs{}, err
		}
		in.Files[name] = path
		in.Rows[name] = ds.Count()
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return inputs{}, err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			in.Bytes += info.Size()
		}
	}
	return in, nil
}
