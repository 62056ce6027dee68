// Command servebench is the repository's benchmark: it builds the Pitot
// serving stack in-process (dataset, training, serve.Server with
// placement, serve.NewHandler behind an http.Server on loopback) and
// drives it over real TCP connections with one of three traffic mixes,
// scoring every reply against the ground-truth cluster. From the
// repository root:
//
//	bash servebench/run.sh --workload predict --seed 1 --seconds 16 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload twice from one trained model, untraced and then with
// timing spans at the module boundaries, and prints the per-layer
// metrics, the tracing overhead and (on predict) whether the traced
// replies match the untraced ones. The last line of standard output is a
// JSON result; the lines before it name every metric with its unit and
// sample count. The exit code is nonzero if any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	pitot "repro"
)

// setupReps is how many times a plain run builds the stack; setup_s is
// the median.
const setupReps = 3

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout))
}

func mainErr(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "traffic mix: predict, place or feedback")
	seed := fs.Int64("seed", 1, "seed of the request stream")
	seconds := fs.Int("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need --workload predict|place|feedback, --seconds >= 1, --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(min(loadConns, runtime.NumCPU()))
	total := time.Duration(*seconds) * time.Second

	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(stdout, spec, *seed, total)
	} else {
		res, err = plainRun(stdout, spec, *seed, total)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printer writes the human-readable metric lines.
type printer struct{ w io.Writer }

func (p printer) metric(name string, v float64, unit string, n int, what string) {
	fmt.Fprintf(p.w, "  %-36s %14.6g %-6s n=%-7d %s\n", name, v, unit, n, what)
}

// quality is the decision-quality and latency summary of a run's nominal
// window.
type quality struct {
	primary, predictLat, placeLat, observeLat []float64 // ms, ms, ms, s
	estAPE, overprov                          []float64
	boundMiss, boundN                         int
	requested, placed, unplaced, missed       int
}

func summarize(r *run, out *outcome) quality {
	var q quality
	for _, x := range out.nominal.reqs {
		if x.failed {
			continue
		}
		lat := ms(x.latency())
		if isPrimary(r.spec, x.kind) {
			q.primary = append(q.primary, lat)
		}
		switch x.kind {
		case opEstimate:
			q.predictLat = append(q.predictLat, lat)
			q.estAPE = append(q.estAPE, math.Abs(x.seconds-x.truth)/x.truth)
		case opBound:
			q.predictLat = append(q.predictLat, lat)
			q.boundN++
			if x.seconds < x.truth {
				q.boundMiss++
			}
			q.overprov = append(q.overprov, x.seconds/x.truth)
		case opPlace, opWave:
			q.placeLat = append(q.placeLat, lat)
			for _, j := range x.jobs {
				q.requested++
				if !j.placed {
					q.unplaced++
					continue
				}
				q.placed++
				if j.truth > j.deadline {
					q.missed++
				}
				q.overprov = append(q.overprov, j.budget/j.truth)
			}
		}
	}
	for _, x := range out.all {
		if x.kind == opObserve && !x.failed {
			q.observeLat = append(q.observeLat, (x.done - x.sent).Seconds())
		}
	}
	return q
}

// checkConservation cross-checks the generator's job accounting with
// itself and with the server's counters once the load has stopped:
// requested = placed + unplaced, and placed = completed + in flight.
func (r *run) checkConservation() error {
	m, err := scrapeMetrics(r.st)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	inFlight := r.placedN - r.completed
	if r.requested != r.placedN+r.unplacedN {
		r.g.failf("conservation: requested %d != placed %d + unplaced %d", r.requested, r.placedN, r.unplacedN)
	}
	if int64(inFlight) != r.inFlight.Load() {
		r.g.failf("conservation: in flight %d by count, %d by tracking", inFlight, r.inFlight.Load())
	}
	check := func(series string, want int) {
		if got := m[series]; got != float64(want) {
			r.g.failf("conservation: %s = %v, generator counted %d", series, got, want)
		}
	}
	check("pitot_placed_total", r.placedN)
	check("pitot_completed_total", r.completed)
	check("pitot_place_in_flight", inFlight)
	if got := m["pitot_place_unplaced_total"] + m["pitot_place_rejected_total"]; got != float64(r.unplacedN) {
		r.g.failf("conservation: server shed %v jobs, generator counted %d", got, r.unplacedN)
	}
	return nil
}

// plainRun measures the end-to-end metrics.
func plainRun(w io.Writer, spec workloadSpec, seed int64, total time.Duration) (*result, error) {
	p := printer{w}
	setups := make([]float64, setupReps)
	var st *stack
	var ds *pitot.Dataset
	for i := range setups {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var pred *pitot.Predictor
		var err error
		if ds, pred, err = train(); err != nil {
			return nil, err
		}
		if st, err = startStack(ds, pred, nil); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	wd := newWorld(ds)
	collectGarbage()

	g := &gate{}
	r := newRun(spec, wd, st, seed, g)
	out, err := r.measure(nominalLen(spec, total), true)
	if err == nil {
		err = r.checkConservation()
	}
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	checkVersions(g, out.all)
	q := summarize(r, out)
	fmt.Fprintf(w, "servebench %s seed=%d: %d platforms, %d workloads (%d in the /place pool), nominal window %v\n",
		spec.name, seed, wd.np, len(wd.ref), len(wd.pool), out.nomEnd-out.nomStart)
	fmt.Fprintf(w, "end-to-end metrics (untraced):\n")
	setupS := median(setups)
	p.metric("setup_s", setupS, "s", len(setups), "dataset, training, first calibration, listener up; median")
	p.metric("p50_ms", quantile(q.primary, 0.5), "ms", len(q.primary), "primary requests ("+primaryName(spec)+"), from due time; not gated, see servebench/README.md")
	p.metric("p90_ms", quantile(q.primary, 0.9), "ms", len(q.primary), "not gated")
	p.metric("p99_ms", quantile(q.primary, 0.99), "ms", len(q.primary), "not gated")
	if len(q.predictLat) > 0 {
		p.metric("predict_p50_ms", quantile(q.predictLat, 0.5), "ms", len(q.predictLat), "/estimate + /bound")
		p.metric("predict_p99_ms", quantile(q.predictLat, 0.99), "ms", len(q.predictLat), "")
	}
	if len(q.placeLat) > 0 {
		p.metric("place_p50_ms", quantile(q.placeLat, 0.5), "ms", len(q.placeLat), "/place")
		p.metric("place_p99_ms", quantile(q.placeLat, 0.99), "ms", len(q.placeLat), "")
	}
	if spec.name == "feedback" {
		p.metric("observe_p50_s", median(q.observeLat), "s", len(q.observeLat), "/observe until its reply carries the new version")
	}
	if spec.ladder0 > 0 {
		p.metric("capacity_rps", out.capacity, "1/s", len(out.probes), fmt.Sprintf("not gated; limit p99 <= %v; probes %s", spec.limit, probeList(out.probes)))
	}
	p.metric("throughput_rps", out.throughput, "1/s", int(out.throughput*satLen.Seconds()), fmt.Sprintf("primary requests answered per second, sent back to back for %v; not gated", satLen))
	attempted, failed := r.eng.attempted.Load(), r.eng.failed.Load()
	p.metric("error_rate", ratio(float64(failed), float64(attempted)), "ratio", int(attempted), "all calls of the run")
	if q.boundN+len(q.estAPE) > 0 {
		if len(q.estAPE) > 0 {
			p.metric("estimate_mape", mean(q.estAPE), "ratio", len(q.estAPE), "|estimate - true| / true")
		}
		p.metric("bound_miscoverage", ratio(float64(q.boundMiss), float64(q.boundN)), "ratio", q.boundN,
			fmt.Sprintf("share of /bound replies below the true runtime; eps = %g, not gated", servingEps))
	}
	p.metric("bound_overprovision", mean(q.overprov), "ratio", len(q.overprov), "mean bound (or placement budget) / true runtime")
	if q.requested > 0 {
		p.metric("place_miss_rate", ratio(float64(q.missed), float64(q.placed)), "ratio", q.placed, "placed jobs whose true runtime exceeded the deadline")
		p.metric("place_shed_rate", ratio(float64(q.unplaced), float64(q.requested)), "ratio", q.requested, "unplaced / requested jobs")
		p.metric("place_util", mean(out.util), "ratio", len(out.util), "mean in-flight jobs / colocation slots")
	}
	peakMB := float64(out.peakHeap) / (1 << 20)
	p.metric("peak_heap_mb", peakMB, "MB", len(out.util), "peak in-use heap over the nominal window, generator included")
	correct := reportGate(w, g)

	return &result{
		Correct:   correct,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metricValue{
			"setup_s":             {setupS, "s"},
			"bound_overprovision": {mean(q.overprov), "ratio"},
			"peak_heap_mb":        {peakMB, "MB"},
		},
	}, nil
}

// collectGarbage frees what set-up left behind before the measured
// window, so every run starts from the same live heap and GC pacing.
// Training parks matrices in sync.Pools, whose contents survive one
// collection in the pools' victim cache; the second collection frees
// them.
func collectGarbage() {
	runtime.GC()
	runtime.GC()
}

func primaryName(spec workloadSpec) string {
	switch spec.name {
	case "predict":
		return "/estimate + /bound"
	case "place":
		return "/place"
	}
	return "/bound"
}

func probeList(ps []probe) string {
	var parts []string
	for _, p := range ps {
		verdict := "fail"
		if p.pass {
			verdict = "ok"
		}
		parts = append(parts, fmt.Sprintf("%.0f/s p99=%.2fms %s", p.rate, ms(p.p99), verdict))
	}
	return strings.Join(parts, ", ")
}

func reportGate(w io.Writer, g *gate) bool {
	if g.n == 0 {
		fmt.Fprintln(w, "correctness gate: pass")
		return true
	}
	fmt.Fprintf(w, "correctness gate: FAIL, %d violations\n", g.n)
	for _, m := range g.msgs {
		fmt.Fprintln(w, "  ", m)
	}
	return false
}

// tracedRun trains once, then runs the workload untraced and traced from
// identical copies of the model, and reports the per-layer metrics of the
// traced run.
func tracedRun(w io.Writer, spec workloadSpec, seed int64, total time.Duration) (*result, error) {
	ds, pred, err := train()
	if err != nil {
		return nil, err
	}
	mean, quant, err := savePredictor(pred)
	if err != nil {
		return nil, err
	}
	wd := newWorld(ds)
	g := &gate{}

	phaseRun := func(tr *tracer) (*run, *outcome, promScrape, promScrape, error) {
		pred, err := loadPredictor(ds, mean, quant)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		st, err := startStack(ds, pred, tr)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		collectGarbage()
		before, err := scrapeMetrics(st)
		r := newRun(spec, wd, st, seed, g)
		var out *outcome
		if err == nil {
			out, err = r.measure(nominalLen(spec, total), false)
		}
		var after promScrape
		if err == nil {
			after, err = scrapeMetrics(st)
		}
		if err == nil {
			err = r.checkConservation()
		}
		if cerr := st.close(); err == nil {
			err = cerr
		}
		if err == nil {
			checkVersions(g, out.all)
		}
		return r, out, before, after, err
	}
	rA, outA, _, _, err := phaseRun(nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	rB, outB, before, after, err := phaseRun(tr)
	if err != nil {
		return nil, err
	}
	layers, fl := layerMetrics(rB, outB, tr, before, after)
	qA, qB := summarize(rA, outA), summarize(rB, outB)
	layers["trace.overhead_p50_ms"] = quantile(qB.primary, 0.5) - quantile(qA.primary, 0.5)
	layers["trace.overhead_p90_ms"] = quantile(qB.primary, 0.9) - quantile(qA.primary, 0.9)

	fmt.Fprintf(w, "servebench %s seed=%d traced: nominal window %v, %d spans\n", spec.name, seed, outB.nomEnd-outB.nomStart, len(tr.spans))
	if spec.name == "predict" {
		sameReplies(w, g, outA.all, outB.all)
	}
	fmt.Fprintf(w, "tracing overhead on %s: p50 %+.4f ms (%.4f untraced), p90 %+.4f ms (%.4f untraced)\n",
		primaryName(spec), layers["trace.overhead_p50_ms"], quantile(qA.primary, 0.5),
		layers["trace.overhead_p90_ms"], quantile(qA.primary, 0.9))
	fmt.Fprintf(w, "predictor floor at rank %d, %d interference types, mean %.2f interferers: %.0f flop and %.0f B per query and head\n",
		fl.rank, fl.types, fl.k, fl.flops, fl.bytes)
	for _, e := range []struct {
		name  string
		heads float64
	}{{"estimate", 1}, {"bound", 1}, {"score", 2}} {
		if ns := layers["predictor."+e.name+"_ns_per_query"]; ns > 0 {
			fmt.Fprintf(w, "  %-8s measured %9.1f ns/query for %.0f flop, %.0f B: %.2f GFLOP/s, %.2f GB/s\n",
				e.name, ns, e.heads*fl.flops, e.heads*fl.bytes, e.heads*fl.flops/ns, e.heads*fl.bytes/ns)
		}
	}
	fmt.Fprintln(w, "per-layer metrics (traced):")
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	metrics := map[string]metricValue{}
	for _, k := range names {
		u := layerUnit(k)
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", k, layers[k], u)
		metrics[k] = metricValue{layers[k], u}
	}
	spanFile := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", spec.name, seed))
	if err := writeSpans(spanFile, tr, rB.eng.start, outB.all); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans written to %s\n", spanFile)
	correct := reportGate(w, g)
	return &result{
		Correct:   correct,
		Attempted: rA.eng.attempted.Load() + rB.eng.attempted.Load(),
		Failed:    rA.eng.failed.Load() + rB.eng.failed.Load(),
		Metrics:   metrics,
	}, nil
}

// sameReplies checks that tracing left predict's replies alone: both
// runs drew the same requests from the seed, so each reply must match
// its untraced counterpart. Values served by the scalar inline path and
// by a micro-batched flush can differ in the last bits (the batch
// kernel reassociates the rank-32 dot), and which path serves a request
// depends on timing, so the check allows a relative difference of 1e-9.
func sameReplies(w io.Writer, g *gate, a, b []*request) {
	n := min(len(a), len(b))
	exact, worst := 0, 0.0
	for i := 0; i < n; i++ {
		x, y := a[i], b[i]
		if x.kind != y.kind || x.truth != y.truth {
			g.failf("identity: request %d differs between runs", i)
			return
		}
		if x.failed || y.failed || x.reqID == 0 || y.reqID == 0 {
			continue
		}
		if x.seconds == y.seconds {
			exact++
			continue
		}
		d := math.Abs(x.seconds-y.seconds) / math.Abs(x.seconds)
		worst = math.Max(worst, d)
		if d > 1e-9 {
			g.failf("identity: request %d replied %v untraced, %v traced", i, x.seconds, y.seconds)
		}
	}
	fmt.Fprintf(w, "traced replies vs untraced: %d compared, %d bitwise equal, max relative difference %.3g\n", n, exact, worst)
}

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms."):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ns_per_query"):
		return "ns"
	case strings.HasSuffix(name, "_bytes") || strings.HasSuffix(name, "bytes_per_query") || strings.HasSuffix(name, "bytes_per_req"):
		return "B"
	case strings.HasSuffix(name, "_rate") || strings.HasSuffix(name, "_share") || strings.HasSuffix(name, "_fraction") ||
		strings.HasSuffix(name, "_mape") || strings.HasSuffix(name, "_miscoverage") || strings.HasSuffix(name, "_util"):
		return "ratio"
	case strings.HasSuffix(name, "_mean"):
		return "count"
	case strings.HasSuffix(name, "flops_per_query"):
		return "flop"
	}
	return "count"
}
