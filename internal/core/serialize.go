package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/dataset"
)

// modelFile is the on-disk representation of a trained model.
type modelFile struct {
	Cfg       Config
	BaselineW []float64
	BaselineP []float64
	Params    []savedMatrix
}

type savedMatrix struct {
	Rows, Cols int
	Data       []float64
}

// Save writes the model's configuration, baseline, and parameters.
func (m *Model) Save(w io.Writer) error {
	mf := modelFile{Cfg: m.Cfg}
	if m.Baseline != nil {
		mf.BaselineW = m.Baseline.W
		mf.BaselineP = m.Baseline.P
	}
	for _, p := range m.params {
		mf.Params = append(mf.Params, savedMatrix{p.Data.Rows, p.Data.Cols, p.Data.Data})
	}
	return gob.NewEncoder(w).Encode(&mf)
}

// Load reads a model saved by Save, rebinding it to the given dataset
// (which must have the same entity counts and feature dimensions). The
// file arrives from disk or the wire, so every saved matrix is checked
// against the shapes its config implies before anything is allocated: a
// corrupt config cannot make NewModel build towers the file does not
// hold.
func Load(r io.Reader, d *dataset.Dataset) (*Model, error) {
	var mf modelFile
	if err := gob.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	shapes, err := paramShapes(mf.Cfg, d)
	if err != nil {
		return nil, err
	}
	if len(mf.Params) != len(shapes) {
		return nil, fmt.Errorf("core: model has %d parameter tensors, file has %d",
			len(shapes), len(mf.Params))
	}
	for i, sp := range mf.Params {
		if sp.Rows != shapes[i][0] || sp.Cols != shapes[i][1] {
			return nil, fmt.Errorf("core: parameter %d shape %dx%d, file has %dx%d",
				i, shapes[i][0], shapes[i][1], sp.Rows, sp.Cols)
		}
		// paramShapes guarantees Rows*Cols does not overflow.
		if len(sp.Data) != sp.Rows*sp.Cols {
			return nil, fmt.Errorf("core: parameter %d has %d values for %dx%d",
				i, len(sp.Data), sp.Rows, sp.Cols)
		}
	}
	m, err := NewModel(mf.Cfg, d)
	if err != nil {
		return nil, err
	}
	for i, sp := range mf.Params {
		copy(m.params[i].Data.Data, sp.Data)
	}
	if mf.BaselineW != nil {
		if len(mf.BaselineW) != d.NumWorkloads() || len(mf.BaselineP) != d.NumPlatforms() {
			return nil, fmt.Errorf("core: baseline sized %dx%d for a %dx%d dataset",
				len(mf.BaselineW), len(mf.BaselineP), d.NumWorkloads(), d.NumPlatforms())
		}
		m.Baseline = &LinearBaseline{W: mf.BaselineW, P: mf.BaselineP}
	}
	m.SyncEmbeddings()
	return m, nil
}

// paramShapes lists the rows and columns of every parameter NewModel
// builds for cfg on d, in Params order: each tower layer's weight and
// bias, then the learned-feature tables.
func paramShapes(cfg Config, d *dataset.Dataset) ([][2]int, error) {
	fw, fp, err := towerSizes(cfg, d)
	if err != nil {
		return nil, err
	}
	var shapes [][2]int
	for _, sizes := range [][]int{fw, fp} {
		for i := 0; i+1 < len(sizes); i++ {
			shapes = append(shapes, [2]int{sizes[i], sizes[i+1]}, [2]int{1, sizes[i+1]})
		}
	}
	if q := cfg.LearnedFeatures; q > 0 {
		shapes = append(shapes, [2]int{d.NumWorkloads(), q}, [2]int{d.NumPlatforms(), q})
	}
	return shapes, nil
}
