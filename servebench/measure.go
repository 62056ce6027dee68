package main

import (
	"math"
	"sync"
	"time"
)

const (
	loadConns = 2 // one per core of the reference box; GOMAXPROCS is 2 as well
	// phaseLead is the gap between queueing a phase and its first due
	// time, so no request is late because it was queued late.
	phaseLead   = 20 * time.Millisecond
	probeRounds = 5 // bisection over ladderLen rungs
	satLen      = 2 * time.Second
	satBacklog  = 256 // queued requests the saturation feeder keeps ahead of the connections
)

// outcome is what one measured interval produced.
type outcome struct {
	nominal    *phase
	nomStart   time.Duration // nominal window on the engine clock
	nomEnd     time.Duration
	capacity   float64 // highest ladder rate that met the limit; 0 if none or not searched
	throughput float64 // primary requests answered per second back to back
	probes     []probe
	peakHeap   uint64
	util       []float64 // in-flight jobs / colocation slots, sampled over the nominal window
	all        []*request
	rtBefore   runtimeSample
	rtAfter    runtimeSample
}

type probe struct {
	rate float64
	p99  time.Duration
	pass bool
}

// nominalLen is the measured window of a run of the given length: what
// is left after the warm-up and, for workloads that have one, the
// capacity search. A traced run measures two windows of this length and
// skips the rest.
func nominalLen(spec workloadSpec, total time.Duration) time.Duration {
	d := total - spec.warm - satLen
	if spec.ladder0 > 0 {
		d -= probeRounds * (probeLen + phaseLead)
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

// measure drives the workload: a warm-up and a nominal window of length
// nom at the nominal rate, then, if search is set, the capacity search
// (for workloads with a ladder) and the saturation phase. It returns once
// every connection has stopped.
func (r *run) measure(nom time.Duration, search bool) (*outcome, error) {
	out := &outcome{rtBefore: readRuntime()}
	out.nomStart = phaseLead + r.spec.warm
	out.nomEnd = out.nomStart + nom

	// The feedback workload keeps one connection for its closed-loop
	// writer; the open-loop requests share the rest.
	feedback := r.spec.name == "feedback"
	conns := loadConns
	if feedback {
		conns--
	}
	if err := r.startConns(conns); err != nil {
		return nil, err
	}
	var obsDone chan struct{}
	var obsConn *client
	if feedback {
		c, err := dial(r.st.addr)
		if err != nil {
			r.eng.close()
			return nil, err
		}
		c.id = loadConns - 1
		obsConn = c
		obsDone = make(chan struct{})
		go r.observeLoop(c, out.nomEnd, obsDone)
	}
	stopSampler := r.sample(out)

	warm, nominal := &phase{}, &phase{}
	warm.add(r.eng, r.arrivals(1, phaseLead, r.spec.warm, warm))
	nominal.add(r.eng, r.arrivals(1, out.nomStart, nom, nominal))
	out.nominal = nominal
	warm.wg.Wait()
	nominal.wg.Wait()
	stopSampler()
	out.all = append(append(out.all, warm.reqs...), nominal.reqs...)
	if obsDone != nil {
		<-obsDone
		// The writer's connection joins the open-loop ones for the
		// saturation phase, so every workload saturates on both.
		if err := r.serveOn(obsConn); err != nil {
			r.eng.close()
			return nil, err
		}
	}

	if search && r.spec.ladder0 > 0 {
		r.searchCapacity(out)
	}
	if search {
		r.saturate(out)
	}
	r.eng.close()
	out.rtAfter = readRuntime()
	r.mu.Lock()
	out.all = append(out.all, r.observes...)
	r.mu.Unlock()
	return out, nil
}

// searchCapacity bisects the workload's rate ladder for the highest rung
// at which, over one probe, nothing failed, nothing was still queued when
// the probe ended (the backlog did not grow), and p99 latency stayed
// within the limit. Rungs are assumed monotone: a rate that fails makes
// every higher rate fail.
func (r *run) searchCapacity(out *outcome) {
	rung := func(i int) float64 { return r.spec.ladder0 * math.Pow(ladderStep, float64(i)) }
	lo, hi := -1, ladderLen
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		pr := r.probe(rung(mid), out)
		out.probes = append(out.probes, pr)
		if pr.pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo >= 0 {
		out.capacity = rung(lo)
	}
}

// saturate keeps the open-loop connections busy for satLen: a feeder
// tops the queue up with already-due copies of the nominal window's
// requests, so each connection sends its next request as soon as the
// last reply is in. It records the primary replies per second.
func (r *run) saturate(out *outcome) {
	from := r.eng.now() + phaseLead
	ph := &phase{cutoff: from + satLen}
	tmpl := out.nominal.reqs
	for i := 0; r.eng.now() < ph.cutoff; {
		if ph.pending.Load() < satBacklog {
			batch := make([]*request, satBacklog)
			for j := range batch {
				batch[j] = r.clone(tmpl[i%len(tmpl)], from, ph)
				i++
			}
			ph.add(r.eng, batch)
		}
		time.Sleep(time.Millisecond)
	}
	ph.wg.Wait()
	out.all = append(out.all, ph.reqs...)
	n := 0
	for _, q := range ph.reqs {
		if !q.dropped && !q.failed && isPrimary(r.spec, q.kind) && q.done <= ph.cutoff {
			n++
		}
	}
	out.throughput = float64(n) / (ph.cutoff - from).Seconds()
}

func (r *run) probe(rate float64, out *outcome) probe {
	from := r.eng.now() + phaseLead
	ph := &phase{cutoff: from + probeLen + r.spec.limit}
	r.eng.runPhase(ph, r.arrivals(rate/r.spec.rate, from, probeLen, ph))
	out.all = append(out.all, ph.reqs...)
	var lat []float64
	pass := len(ph.reqs) > 0
	for _, q := range ph.reqs {
		if q.dropped || q.failed {
			pass = false
			continue
		}
		if isPrimary(r.spec, q.kind) {
			lat = append(lat, float64(q.latency()))
		}
	}
	p99 := time.Duration(quantile(lat, 0.99))
	return probe{rate: rate, p99: p99, pass: pass && p99 <= r.spec.limit}
}

// isPrimary selects the requests behind a workload's latency percentiles
// and throughput.
func isPrimary(spec workloadSpec, k opKind) bool {
	if spec.primary == opEstimate {
		return k == opEstimate || k == opBound
	}
	return k == spec.primary
}

// sample records peak heap and slot occupancy every 5 ms over the
// nominal window; the returned stop waits for the sampler to exit.
func (r *run) sample(out *outcome) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		slots := float64(r.wd.np * maxColocation)
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			now := r.eng.now()
			if now < out.nomStart || now > out.nomEnd {
				continue
			}
			if h := heapInUse(); h > out.peakHeap {
				out.peakHeap = h
			}
			out.util = append(out.util, float64(r.inFlight.Load())/slots)
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
