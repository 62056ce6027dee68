package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	pitot "repro"
)

// routes with a handler-time metric.
var handlerRoutes = []string{"estimate", "bound", "place", "complete", "observe"}

// layerMetrics computes the per-layer metrics of a traced run from the
// tracer's spans, the generator's request records and the growth of the
// server's /metrics series over the run.
func layerMetrics(r *run, out *outcome, tr *tracer, before, after promScrape) (map[string]float64, floor) {
	m := map[string]float64{}
	sent := sentRequests(out.all)

	// loadgen: the generator's own error and the input property a cache
	// claim must cite.
	var late []float64
	for _, q := range sent {
		if q.idle {
			late = append(late, ms(q.late()))
		}
	}
	m["loadgen.late_p50_ms"] = quantile(late, 0.5)
	m["loadgen.late_p99_ms"] = quantile(late, 0.99)
	m["loadgen.sent"] = float64(r.eng.attempted.Load())
	m["loadgen.workload_repeat_share"] = repeatShare(out.nominal.reqs)

	// http: handler time per route, and what the socket and the HTTP
	// stack add around it.
	handler := map[uint64]time.Duration{}
	byRoute := map[string][]float64{}
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.kind == spHandler {
			handler[s.parent] = s.dur()
			route := strings.TrimPrefix(s.route, "/")
			byRoute[route] = append(byRoute[route], ms(s.dur()))
		}
	}
	for _, rt := range handlerRoutes {
		m["http.handler_p50_ms."+rt] = quantile(byRoute[rt], 0.5)
	}
	var wire, reqB, rspB []float64
	for _, q := range sent {
		if h, ok := handler[q.reqID]; ok {
			wire = append(wire, ms(q.done-q.sent-h))
		}
		reqB = append(reqB, float64(q.reqBytes))
		rspB = append(rspB, float64(q.rspLen))
	}
	m["http.wire_p50_ms"] = quantile(wire, 0.5)
	m["http.req_bytes"] = mean(reqB)
	m["http.resp_bytes"] = mean(rspB)

	// serve.batch: the micro-batcher's flushes and the time a request
	// spends in its handler outside the predictor call that served it.
	flushes := 0.0
	for _, kind := range []string{"inline", "idle", "full", "timeout"} {
		d := delta(before, after, "pitot_flushes_"+kind+"_total")
		m["serve.batch.flushes_"+kind] = d
		flushes += d
	}
	m["serve.batch.size_mean"] = ratio(delta(before, after, "pitot_requests_total"), flushes)
	m["serve.batch.queue_wait_p50_ms"] = quantile(queueWaits(sent, tr), 0.5)

	// serve.placewin: the /place accumulation window.
	waves := delta(before, after, "pitot_place_waves_total")
	waveJobs := delta(before, after, "pitot_place_wave_jobs_total")
	inline := delta(before, after, "pitot_place_inline_total")
	shed := delta(before, after, "pitot_place_shed_total")
	m["serve.placewin.wave_jobs_mean"] = ratio(waveJobs, waves)
	m["serve.placewin.inline_share"] = ratio(inline, inline+waveJobs+shed)
	m["serve.placewin.shed"] = shed

	// sched: wave and lock-hold latency from its own histograms; self
	// time is the wave minus its scoring calls into the predictor. Those
	// calls reach the backend as BoundBatch or ScoreSecondsBatch, like the
	// micro-batcher's flushes, so sched's own score-batch histogram
	// separates them.
	schedWaves := delta(before, after, "pitot_place_wave_seconds_count")
	m["sched.wave_p50_ms"] = 1e3 * histQuantile(before, after, "pitot_place_wave_seconds", 0.5)
	m["sched.chunk_hold_p50_ms"] = 1e3 * histQuantile(before, after, "pitot_place_chunk_hold_seconds", 0.5)
	m["sched.self_ms"] = ratio(1e3*(delta(before, after, "pitot_place_wave_seconds_sum")-
		delta(before, after, "pitot_place_score_batch_seconds_sum")), schedWaves)
	hits := delta(before, after, "pitot_place_score_cache_hits_total")
	m["sched.cache_hit_rate"] = ratio(hits, hits+delta(before, after, "pitot_place_score_cache_misses_total"))

	// predictor: time per query by entry point; the first bound-facet
	// call on each newly published snapshot pays its conformal
	// calibration and is reported apart.
	var dur [numSpanKinds]time.Duration
	var n [numSpanKinds]int
	var calls int
	var calib []float64
	calibrated := map[uint64]bool{0: true} // version 0 is calibrated during set-up
	spans := append([]span(nil), tr.spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	for i := range spans {
		s := &spans[i]
		if s.kind == spHandler {
			continue
		}
		calls++
		if s.kind == spBound || s.kind == spBoundBatch || s.kind == spScore {
			if !calibrated[s.version] {
				calibrated[s.version] = true
				calib = append(calib, ms(s.dur()))
				continue
			}
		}
		dur[s.kind] += s.dur()
		n[s.kind] += s.n
	}
	perQuery := func(kinds ...spanKind) float64 {
		var d time.Duration
		var q int
		for _, k := range kinds {
			d += dur[k]
			q += n[k]
		}
		return ratio(float64(d), float64(q))
	}
	m["predictor.estimate_ns_per_query"] = perQuery(spEstimate, spEstimateBatch)
	m["predictor.bound_ns_per_query"] = perQuery(spBound, spBoundBatch)
	m["predictor.score_ns_per_query"] = perQuery(spScore)
	m["predictor.calls"] = float64(calls)
	m["predictor.calibrate_ms"] = mean(calib)
	fl := scoringFloor(tr.spans)
	m["predictor.flops_per_query"] = fl.flops
	m["predictor.bytes_per_query"] = fl.bytes

	// online: the fine-tune behind /observe and the snapshots it
	// published.
	var obs []float64
	for i := range tr.spans {
		if tr.spans[i].kind == spObserve {
			obs = append(obs, tr.spans[i].dur().Seconds())
		}
	}
	m["online.observe_s"] = mean(obs)
	m["online.publishes"] = delta(before, after, "pitot_snapshot_version")

	// runtime: the whole process, generator included.
	m["runtime.gc_cpu_fraction"] = ratio(out.rtAfter.gcCPU-out.rtBefore.gcCPU, out.rtAfter.totalCPU-out.rtBefore.totalCPU)
	m["runtime.alloc_bytes_per_req"] = ratio(out.rtAfter.allocBytes-out.rtBefore.allocBytes, float64(r.eng.attempted.Load()))

	// Decision quality, attributed to the layer that made the decision;
	// reported, not gated.
	q := summarize(r, out)
	m["predictor.estimate_mape"] = mean(q.estAPE)
	m["predictor.bound_miscoverage"] = ratio(float64(q.boundMiss), float64(q.boundN))
	m["sched.place_miss_rate"] = ratio(float64(q.missed), float64(q.placed))
	m["sched.place_shed_rate"] = ratio(float64(q.unplaced), float64(q.requested))
	m["sched.place_util"] = mean(out.util)
	return m, fl
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sentRequests are the requests that went out on the wire.
func sentRequests(all []*request) []*request {
	var out []*request
	for _, q := range all {
		if !q.dropped && q.reqID != 0 {
			out = append(out, q)
		}
	}
	return out
}

// repeatShare is the share of requests whose cache-relevant key — the
// full query for /estimate and /bound, the workload for each /place job —
// already occurred among the previous repeatWindow keys.
func repeatShare(reqs []*request) float64 {
	var keys []string
	for _, q := range reqs {
		switch q.kind {
		case opEstimate, opBound:
			keys = append(keys, fmt.Sprint(q.q.Workload, q.q.Platform, q.q.Interferers))
		case opPlace, opWave:
			for _, j := range q.jobs {
				keys = append(keys, fmt.Sprint(j.w))
			}
		}
	}
	repeats := 0
	for i, k := range keys {
		for j := max(0, i-repeatWindow); j < i; j++ {
			if keys[j] == k {
				repeats++
				break
			}
		}
	}
	return ratio(float64(repeats), float64(len(keys)))
}

// queueWaits is, per /estimate or /bound request, its handler time minus
// the predictor call that answered it. The call is found by the query it
// carried and must lie inside the handler span; queries are random enough
// that a repeat inside one handler's lifetime does not occur in practice.
func queueWaits(sent []*request, tr *tracer) []float64 {
	type call struct{ start, end time.Duration }
	byKey := map[string][]call{}
	key := func(q pitot.Query, bound bool) string {
		return fmt.Sprint(bound, q.Workload, q.Platform, q.Interferers)
	}
	handlers := map[uint64]*span{}
	for i := range tr.spans {
		s := &tr.spans[i]
		switch s.kind {
		case spEstimate, spBound:
			k := key(s.q, s.kind == spBound)
			byKey[k] = append(byKey[k], call{s.start, s.end})
		case spEstimateBatch, spBoundBatch:
			for _, q := range s.qs {
				k := key(q, s.kind == spBoundBatch)
				byKey[k] = append(byKey[k], call{s.start, s.end})
			}
		case spHandler:
			handlers[s.parent] = s
		}
	}
	var waits []float64
	for _, q := range sent {
		if q.kind != opEstimate && q.kind != opBound {
			continue
		}
		h, ok := handlers[q.reqID]
		if !ok {
			continue
		}
		for _, c := range byKey[key(q.q, q.kind == opBound)] {
			if c.start >= h.start && c.end <= h.end {
				waits = append(waits, ms(h.dur()-(c.end-c.start)))
				break
			}
		}
	}
	return waits
}

// floor is the first-principles work of scoring one query with one head
// at the model's rank, from the model configuration.
type floor struct {
	rank, types int
	k           float64 // mean interferers per scored query
	flops       float64
	bytes       float64
}

// scoringFloor counts, for one head of one unshared query with k
// interferers at rank r and s interference types:
//
//	flops: wᵀp (2r) + per type [Σ_k w_kᵀv_g (2rk) + activation (1) +
//	       wᵀv_s (2r) + scale-and-add (2)] + baseline add and exp (2)
//	bytes: the float64 rows read — w (r), p with its per-type v_s and
//	       v_g (r(1+2s)), and each interferer (rk)
//
// k is the mean over every query the predictor scored. Estimate and
// bound evaluate one head per query, a fused score call two (mean and
// bound). Batched queries that share a platform and interferer set fold
// the interference term once per group, so this is the floor of the
// unshared case.
func scoringFloor(spans []span) floor {
	cfg := pitot.DefaultModelConfig(dataSeed)
	r, s := float64(cfg.EmbeddingDim), float64(cfg.InterferenceTypes)
	var queries, ks float64
	for i := range spans {
		if sp := &spans[i]; sp.kind != spHandler && sp.kind != spObserve {
			queries += float64(sp.n)
			ks += float64(sp.ks)
		}
	}
	k := ratio(ks, queries)
	return floor{
		rank:  cfg.EmbeddingDim,
		types: cfg.InterferenceTypes,
		k:     k,
		flops: 2*r + s*(2*r*(k+1)+3) + 2,
		bytes: 8 * r * (2 + 2*s + k),
	}
}
