package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	pitot "repro"
	"repro/internal/serve"
)

type spanKind uint8

const (
	spEstimate      spanKind = iota // Backend.Estimate (micro-batcher inline path)
	spBound                         // Backend.Bound
	spEstimateBatch                 // Backend.EstimateBatch (micro-batcher flush)
	spBoundBatch                    // Backend.BoundBatch
	spScore                         // ScorerBackend.ScoreSecondsBatch (placement scoring)
	spObserve                       // Backend.Observe
	spHandler                       // one HTTP request through serve.NewHandler
	numSpanKinds
)

var spanName = [numSpanKinds]string{"predictor.estimate", "predictor.bound", "predictor.estimate_batch",
	"predictor.bound_batch", "predictor.score", "predictor.observe", "http.handler"}

// span is one timed call at a module boundary. Backend spans have no
// parent: they run on flusher and window goroutines that serve many
// requests. The analysis joins a request to its backend span through the
// query it carried.
type span struct {
	kind       spanKind
	route      string // handler spans: URL path
	parent     uint64 // handler spans: the client's request id
	start, end time.Duration
	n          int           // queries scored
	ks         int           // interferers summed over those queries
	version    uint64        // backend spans: snapshot version when the call began
	q          pitot.Query   // spEstimate/spBound
	qs         []pitot.Query // spEstimateBatch/spBoundBatch (the batcher's own per-flush slice)
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrapBackend times every call into the predictor. The wrapper forwards
// ScorerBackend, the one optional interface serve type-asserts on its
// backend, so placement keeps its fused scoring path.
func (t *tracer) wrapBackend(p *pitot.Predictor) serve.Backend { return &tracedBackend{t: t, p: p} }

type tracedBackend struct {
	t *tracer
	p *pitot.Predictor
}

var _ serve.ScorerBackend = (*tracedBackend)(nil)

func sumKs(qs []pitot.Query) int {
	n := 0
	for i := range qs {
		n += len(qs[i].Interferers)
	}
	return n
}

func (b *tracedBackend) Estimate(w, pl int, ks []int) float64 {
	s := span{kind: spEstimate, n: 1, ks: len(ks), q: pitot.Query{Workload: w, Platform: pl, Interferers: ks}, version: b.p.Version(), start: b.t.now()}
	v := b.p.Estimate(w, pl, ks)
	s.end = b.t.now()
	b.t.add(s)
	return v
}

func (b *tracedBackend) Bound(w, pl int, ks []int, eps float64) (float64, error) {
	s := span{kind: spBound, n: 1, ks: len(ks), q: pitot.Query{Workload: w, Platform: pl, Interferers: ks}, version: b.p.Version(), start: b.t.now()}
	v, err := b.p.Bound(w, pl, ks, eps)
	s.end = b.t.now()
	b.t.add(s)
	return v, err
}

func (b *tracedBackend) EstimateBatch(qs []pitot.Query) []float64 {
	s := span{kind: spEstimateBatch, n: len(qs), ks: sumKs(qs), qs: qs, version: b.p.Version(), start: b.t.now()}
	v := b.p.EstimateBatch(qs)
	s.end = b.t.now()
	b.t.add(s)
	return v
}

func (b *tracedBackend) BoundBatch(qs []pitot.Query, eps float64) ([]float64, error) {
	s := span{kind: spBoundBatch, n: len(qs), ks: sumKs(qs), qs: qs, version: b.p.Version(), start: b.t.now()}
	v, err := b.p.BoundBatch(qs, eps)
	s.end = b.t.now()
	b.t.add(s)
	return v, err
}

func (b *tracedBackend) ScoreSecondsBatch(qs []pitot.Query, eps float64, meanOut, boundOut []float64) {
	// qs is the scheduler's reusable scratch, so only its size is kept.
	s := span{kind: spScore, n: len(qs), ks: sumKs(qs), version: b.p.Version(), start: b.t.now()}
	b.p.ScoreSecondsBatch(qs, eps, meanOut, boundOut)
	s.end = b.t.now()
	b.t.add(s)
}

func (b *tracedBackend) Observe(obs []pitot.Observation) error {
	s := span{kind: spObserve, n: len(obs), version: b.p.Version(), start: b.t.now()}
	err := b.p.Observe(obs)
	s.end = b.t.now()
	b.t.add(s)
	return err
}

// Info is called on every request for the snapshot version; it is a
// pointer load and is forwarded untimed.
func (b *tracedBackend) Info() pitot.Info { return b.p.Info() }

// wrapHandler times every HTTP request at the handler boundary.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		// Requests without the header (none from the generator) get id 0.
		id, _ := strconv.ParseUint(r.Header.Get("X-Bench-Req"), 10, 64)
		h.ServeHTTP(w, r)
		t.add(span{kind: spHandler, route: r.URL.Path, parent: id, start: start, end: t.now()})
	})
}

// promScrape is one parsed GET /metrics: every sample keyed by its series
// (name plus labels as written).
type promScrape map[string]float64

func scrapeMetrics(st *stack) (promScrape, error) {
	body, err := st.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := promScrape{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// delta is the growth of a counter between two scrapes; a series that
// does not exist (a layer switched off) reads 0.
func delta(a, b promScrape, series string) float64 { return b[series] - a[series] }

// histQuantile interpolates the q-quantile of the observations a
// histogram gained between two scrapes, as Prometheus' histogram_quantile
// does: linearly inside the bucket that holds the rank.
func histQuantile(a, b promScrape, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + "_bucket{le=\""
	for series, v := range b {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		ub, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(series, prefix), "\"}"), 64)
		if err != nil || math.IsInf(ub, 1) {
			continue
		}
		bs = append(bs, bucket{ub, v - a[series]})
	}
	total := delta(a, b, name+"_count")
	if total == 0 || len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, bk := range bs {
		if bk.n >= rank {
			if bk.n == prev {
				return bk.le
			}
			return lo + (bk.le-lo)*(rank-prev)/(bk.n-prev)
		}
		lo, prev = bk.le, bk.n
	}
	return bs[len(bs)-1].le
}

// runtimeSample reads the Go runtime's cumulative counters.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// heapInUse is the bytes occupied by heap objects, live or not yet swept.
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// writeSpans writes the client-side request spans and the server-side
// spans of a traced run as JSON lines, with wall-clock nanosecond times.
func writeSpans(path string, t *tracer, clientEpoch time.Time, reqs []*request) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name    string `json:"name"`
		ID      uint64 `json:"id,omitempty"`
		Parent  uint64 `json:"parent,omitempty"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		N       int    `json:"n,omitempty"`
		Version uint64 `json:"version,omitempty"`
	}
	for _, q := range reqs {
		if q.dropped {
			continue
		}
		_ = enc.Encode(line{Name: "client." + opRoute[q.kind], ID: q.reqID,
			StartNs: clientEpoch.Add(q.sent).UnixNano(), EndNs: clientEpoch.Add(q.done).UnixNano(), N: len(q.jobs)})
	}
	for i := range t.spans {
		s := &t.spans[i]
		name := spanName[s.kind]
		if s.kind == spHandler {
			name += "." + strings.TrimPrefix(s.route, "/")
		}
		_ = enc.Encode(line{Name: name, Parent: s.parent,
			StartNs: t.epoch.Add(s.start).UnixNano(), EndNs: t.epoch.Add(s.end).UnixNano(), N: s.n, Version: s.version})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
