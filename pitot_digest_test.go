package pitot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// TestSaveModelDigests pins the trained weights of the serving benchmark's
// configuration (servebench/stack.go: dataset seed 1, 48 workloads, 24
// devices, 25 sets per degree, 100 steps, bounds on) to the SHA-256 of
// both SaveModel streams. A change to training that is meant to be
// weight-identical must leave them alone. The digests also cover gob's
// encoding of core.Config, so adding or renaming a Config field moves them
// without moving a weight. They are recorded on amd64, where the compiler
// fuses no multiply-add by default.
func TestSaveModelDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two models at the benchmark's scale")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	ds := GenerateDataset(DatasetConfig{Seed: 1, NumWorkloads: 48, MaxDevices: 24, SetsPerDegree: 25})
	cfg := DefaultModelConfig(1)
	cfg.Steps = 100
	pred, err := Train(ds, Options{Seed: 1, Model: &cfg, EnableBounds: true})
	if err != nil {
		t.Fatal(err)
	}
	var mean, quant bytes.Buffer
	if err := pred.SaveModel(&mean, &quant); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		stream []byte
		want   string
	}{
		{"mean", mean.Bytes(), "f6427fa23b2ddb30135676560b2050a353f2b31dfb384d2e7196afe27f8aaec2"},
		{"quantile", quant.Bytes(), "e850021f134ac3eb04b0fbec199270b3cc64a1227d379eb4b6df4ff0710c774a"},
	} {
		sum := sha256.Sum256(c.stream)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s model SHA-256 %s, want %s", c.name, got, c.want)
		}
	}
}
