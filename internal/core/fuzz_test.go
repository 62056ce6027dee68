package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/wasmcluster"
)

// FuzzLoadModel feeds arbitrary bytes to Load. Whatever the stream holds,
// Load must return an error or a model, never panic or allocate towers
// the stream does not hold; an accepted model must survive Save and Load.
func FuzzLoadModel(f *testing.F) {
	ds := wasmcluster.New(wasmcluster.Config{Seed: 3, NumWorkloads: 6, MaxDevices: 2, SetsPerDegree: 3}).Generate()
	cfg := smallConfig(1)
	cfg.Hidden = 4
	cfg.EmbeddingDim = 2
	cfg.Quantiles = []float64{0.5, 0.9}
	m, err := NewModel(cfg, ds)
	if err != nil {
		f.Fatal(err)
	}
	m.Baseline = FitLinearBaseline(ds, allIndices(len(ds.Obs)), 0)
	var valid bytes.Buffer
	if err := m.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// Configs whose towers would not fit in memory, or whose sizes
	// overflow an int, next to the small model's parameters: Load must
	// reject them before NewModel allocates (makeslice panics otherwise).
	for _, corrupt := range []func(*Config){
		func(c *Config) { c.Hidden = 1 << 40 },
		func(c *Config) { c.EmbeddingDim = 1 << 62 },
		func(c *Config) { c.LearnedFeatures = 1<<63 - 1 },
	} {
		var mf modelFile
		if err := gob.NewDecoder(bytes.NewReader(valid.Bytes())).Decode(&mf); err != nil {
			f.Fatal(err)
		}
		corrupt(&mf.Cfg)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&mf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data), ds)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("re-save of an accepted model failed: %v", err)
		}
		if _, err := Load(&buf, ds); err != nil {
			t.Fatalf("re-load of an accepted model failed: %v", err)
		}
	})
}
