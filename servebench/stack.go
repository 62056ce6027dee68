package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	pitot "repro"
	"repro/internal/serve"
	"repro/internal/wasmcluster"
)

// The system under test is fixed; only the request stream depends on the
// benchmark's seed. The dataset is the synthetic cluster at the paper's
// 24-device catalogue (220 platforms) with 48 workloads.
const (
	dataSeed      = 1
	numWorkloads  = 48
	numDevices    = 24
	setsPerDegree = 25
	// trainSteps is below cmd/serve's default of 2500: at this scale one
	// training pass of both models costs about 45 ms a step on two cores,
	// and the set-up is repeated in every run.
	trainSteps = 100
	servingEps = 0.1 // eps of every /bound query; also the bound policy's eps
)

func datasetConfig() pitot.DatasetConfig {
	return pitot.DatasetConfig{Seed: dataSeed, NumWorkloads: numWorkloads, MaxDevices: numDevices, SetsPerDegree: setsPerDegree}
}

// groundTruth rebuilds the generator's cluster from the same
// configuration, so every reply can be scored against the runtime the
// cluster would really have measured.
func groundTruth() *wasmcluster.Cluster { return wasmcluster.New(datasetConfig()) }

// train generates the dataset and fits the mean and quantile models.
func train() (*pitot.Dataset, *pitot.Predictor, error) {
	ds := pitot.GenerateDataset(datasetConfig())
	cfg := pitot.DefaultModelConfig(dataSeed)
	cfg.Steps = trainSteps
	pred, err := pitot.Train(ds, pitot.Options{Seed: dataSeed, Model: &cfg, EnableBounds: true})
	if err != nil {
		return nil, nil, fmt.Errorf("train: %w", err)
	}
	return ds, pred, nil
}

// stack is the serving daemon as cmd/serve builds it with -place and
// every other flag at its default, listening on a loopback port.
type stack struct {
	srv     *serve.Server
	httpSrv *http.Server
	addr    string
	served  chan error
	tr      *tracer // nil in untraced runs
}

// startStack calibrates the predictor at the serving eps, then starts the
// server with placement enabled and waits until /healthz answers over
// the socket. With tr set, the backend and the handler are wrapped in its
// timing spans.
func startStack(ds *pitot.Dataset, pred *pitot.Predictor, tr *tracer) (*stack, error) {
	o := ds.Obs[0]
	if _, err := pred.Bound(o.Workload, o.Platform, o.Interferers, servingEps); err != nil {
		return nil, fmt.Errorf("first calibration: %w", err)
	}
	var be serve.Backend = pred
	if tr != nil {
		be = tr.wrapBackend(pred)
	}
	// serve.Config and PlacementConfig mirror cmd/serve's flag defaults.
	srv := serve.New(be, serve.Config{
		MaxBatch: 256,
		Window:   100 * time.Microsecond,
		MaxQueue: 4096,
	})
	err := srv.EnablePlacement(serve.PlacementConfig{
		Policy:        "bound",
		Eps:           servingEps,
		PadFactor:     1.3,
		Strategy:      "least-loaded",
		MaxColocation: maxColocation,
		Window:        200 * time.Microsecond,
		MaxWave:       64,
		Replicas:      1,
	})
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("enable placement: %w", err)
	}
	var h http.Handler = serve.NewHandler(srv)
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st := &stack{srv: srv, httpSrv: &http.Server{Handler: h}, addr: ln.Addr().String(), served: make(chan error, 1), tr: tr}
	go func() { st.served <- st.httpSrv.Serve(ln) }()
	if _, err := st.get("/healthz"); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// get makes one GET on a connection of its own; the benchmark uses it
// only while no load is running.
func (st *stack) get(path string) ([]byte, error) {
	c, err := dial(st.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	status, body, err := c.do(http.MethodGet, path, nil, 0)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, status)
	}
	return body, nil
}

// close stops the HTTP server, waits for its accept loop to return, then
// drains the micro-batcher and the placement window.
func (st *stack) close() error {
	err := st.httpSrv.Close()
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	st.srv.Close()
	return err
}

// savePredictor serializes a trained predictor so that both phases of a
// traced run can start from bitwise-identical copies.
func savePredictor(pred *pitot.Predictor) (mean, quant []byte, err error) {
	var mb, qb bytes.Buffer
	if err := pred.SaveModel(&mb, &qb); err != nil {
		return nil, nil, fmt.Errorf("save predictor: %w", err)
	}
	return mb.Bytes(), qb.Bytes(), nil
}

func loadPredictor(ds *pitot.Dataset, mean, quant []byte) (*pitot.Predictor, error) {
	pred, err := pitot.LoadPredictor(ds, bytes.NewReader(mean), bytes.NewReader(quant))
	if err != nil {
		return nil, fmt.Errorf("load predictor: %w", err)
	}
	return pred, nil
}
