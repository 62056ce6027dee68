package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	pitot "repro"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/wasmcluster"
)

// Workload shapes. Nominal rates (workloadSpec.rate) are well below the
// capacity of a two-core box, so the nominal window measures service
// time, not saturation.
const (
	maxColocation = 4 // cmd/serve's -place-colocation default

	// holdCompress maps a job's true runtime to how long the generator
	// holds its slot before /complete. At the place workload's rate it
	// keeps about half of the 880 colocation slots busy.
	holdCompress = 3.6
	// deadlineFactor sets each job's deadline to this multiple of its
	// workload's median true isolation runtime across platforms, so
	// roughly the faster half of the platforms can take it.
	deadlineFactor = 1.0
	// zipfS skews /place popularity towards a hot set of workloads.
	zipfS = 1.1

	feedbackWaveRate = 4.0 // /place waves per second beside feedback's /bound stream
	waveJobs         = 32
	observeBatch     = 32                     // observations per /observe call
	observePause     = 250 * time.Millisecond // pause between an /observe reply and the next call

	// repeatWindow is how far back workloadRepeatShare looks for an
	// earlier request with the same key.
	repeatWindow = 64
)

// Capacity search: a geometric ladder of rates, probed by bisection.
const (
	probeLen   = 500 * time.Millisecond
	ladderStep = 1.189207115002721 // 2^(1/4)
	ladderLen  = 24
)

// workloadSpec describes one traffic mix.
type workloadSpec struct {
	name    string
	rate    float64       // nominal arrivals per second of the primary requests
	warm    time.Duration // unmeasured lead-in at the nominal rate
	ladder0 float64       // lowest capacity-ladder rate; 0 = no capacity search
	limit   time.Duration // p99 latency limit for the capacity search
	primary opKind        // requests behind the latency and throughput figures (opEstimate stands for /estimate+/bound)
}

var workloads = []workloadSpec{
	// The paper's product served to independent callers: HTTP, the
	// micro-batcher and the predictor kernels do all the work.
	{name: "predict", rate: 1000, warm: time.Second, ladder0: 500, limit: 5 * time.Millisecond, primary: opEstimate},
	// The place window, sched and bound scoring do the work; hot
	// workloads repeat, so score reuse is possible.
	{name: "place", rate: 500, warm: 2 * time.Second, ladder0: 100, limit: 20 * time.Millisecond, primary: opPlace},
	// Writes beside reads: every /observe publish invalidates the
	// calibration and the score epoch while the fine-tune takes a core.
	{name: "feedback", rate: 500, warm: time.Second, primary: opBound},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// world is the fixed ground truth the requests are drawn from and scored
// against: the rebuilt cluster and the supported pairs of its dataset.
type world struct {
	cl    *wasmcluster.Cluster
	np    int
	sup   [][]int  // workloads with an isolation observation, per platform
	pairs [][2]int // supported (workload, platform) pairs
	ref   []float64
	pool  []int // workloads /place draws from, hottest first
}

func newWorld(ds *pitot.Dataset) *world {
	cl := groundTruth()
	wd := &world{cl: cl, np: ds.NumPlatforms(), sup: make([][]int, ds.NumPlatforms())}
	for _, o := range ds.Obs {
		if len(o.Interferers) == 0 {
			wd.sup[o.Platform] = append(wd.sup[o.Platform], o.Workload)
			wd.pairs = append(wd.pairs, [2]int{o.Workload, o.Platform})
		}
	}
	// Placement draws from workloads whose median isolation runtime is
	// between 50 ms and 5 s, so that slot hold times stay within a run.
	wd.ref = make([]float64, ds.NumWorkloads())
	for w := range wd.ref {
		xs := make([]float64, wd.np)
		for p := range xs {
			xs[p] = cl.TrueIsolationSeconds(w, p)
		}
		wd.ref[w] = median(xs)
		if wd.ref[w] >= 0.05 && wd.ref[w] <= 5 {
			wd.pool = append(wd.pool, w)
		}
	}
	// The popularity order is part of the workload, not of the seed: a
	// fixed shuffle decides which workloads are hot.
	rand.New(rand.NewSource(dataSeed)).Shuffle(len(wd.pool), func(i, j int) {
		wd.pool[i], wd.pool[j] = wd.pool[j], wd.pool[i]
	})
	return wd
}

// job is one /place job and what became of it.
type job struct {
	seq      uint64 // seeds the job's ground-truth measurement
	w        int
	deadline float64

	placed   bool
	reason   string
	id       uint64
	platform int
	budget   float64
	ks       []int   // workloads resident on the platform when it was placed
	truth    float64 // true runtime under those residents
}

// gate collects correctness violations; any violation fails the run.
type gate struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (g *gate) failf(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	if len(g.msgs) < 10 {
		g.msgs = append(g.msgs, fmt.Sprintf(format, args...))
	}
}

// run is one workload driven against one stack.
type run struct {
	spec   workloadSpec
	wd     *world
	st     *stack
	eng    *engine
	g      *gate
	rng    *rand.Rand // the request stream; used only by the main goroutine
	zipf   *rand.Zipf
	clones uint64 // varies the truth seeds of cloned jobs

	// Placement bookkeeping, shared by the connections.
	mu        sync.Mutex
	residents [][]*job
	ids       map[uint64]bool
	requested int
	placedN   int
	unplacedN int
	completed int
	pendingOb []pitot.Observation // completed jobs not yet posted to /observe
	observes  []*request
	inFlight  atomic.Int64
}

func newRun(spec workloadSpec, wd *world, st *stack, seed int64, g *gate) *run {
	rng := rand.New(rand.NewSource(seed))
	r := &run{
		spec:      spec,
		wd:        wd,
		st:        st,
		g:         g,
		rng:       rng,
		zipf:      rand.NewZipf(rng, zipfS, 1, uint64(len(wd.pool)-1)),
		residents: make([][]*job, wd.np),
		ids:       map[uint64]bool{},
	}
	r.eng = newEngine(r.exec)
	return r
}

// startConns dials n load connections and starts serving the queue on
// them.
func (r *run) startConns(n int) error {
	for i := 0; i < n; i++ {
		c, err := dial(r.st.addr)
		if err != nil {
			r.eng.close()
			return err
		}
		c.id = i
		if err := r.serveOn(c); err != nil {
			r.eng.close()
			return err
		}
	}
	return nil
}

// serveOn starts serving the queue on c; the connection is closed when
// the engine stops.
func (r *run) serveOn(c *client) error {
	pc, err := newPacer()
	if err != nil {
		c.close()
		return err
	}
	r.eng.workers.Add(1)
	go func() {
		defer c.close()
		defer pc.close()
		r.eng.serve(c, pc)
	}()
	return nil
}

// poisson returns arrival offsets of a Poisson process at rate per
// second over [from, from+dur).
func (r *run) poisson(rate float64, from, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := from
	for {
		t += time.Duration(r.rng.ExpFloat64() / rate * float64(time.Second))
		if t >= from+dur {
			return out
		}
		out = append(out, t)
	}
}

// arrivals builds the open-loop requests of one phase at the given rate
// multiple of the workload's nominal mix.
func (r *run) arrivals(scale float64, from, dur time.Duration, ph *phase) []*request {
	var reqs []*request
	rate := r.spec.rate * scale
	switch r.spec.name {
	case "predict":
		for _, t := range r.poisson(rate, from, dur) {
			reqs = append(reqs, r.predictReq(t, r.rng.Intn(2) == 1))
		}
	case "place":
		for _, t := range r.poisson(rate, from, dur) {
			reqs = append(reqs, r.placeReq(t, opPlace, 1))
		}
	case "feedback":
		for _, t := range r.poisson(rate, from, dur) {
			reqs = append(reqs, r.predictReq(t, true))
		}
		// Waves stay at their nominal rate when the reads are scaled.
		for _, t := range r.poisson(feedbackWaveRate, from, dur) {
			reqs = append(reqs, r.placeReq(t, opWave, waveJobs))
		}
		sort.Slice(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	}
	for _, q := range reqs {
		q.phase = ph
	}
	return reqs
}

// predictReq draws a supported (workload, platform) pair with 0-3
// interferers that the platform also supports, and the runtime the
// cluster would measure for it.
func (r *run) predictReq(due time.Duration, bound bool) *request {
	pr := r.wd.pairs[r.rng.Intn(len(r.wd.pairs))]
	w, p := pr[0], pr[1]
	k := r.rng.Intn(4)
	var ks []int
	for _, i := range r.rng.Perm(len(r.wd.sup[p])) {
		if len(ks) == k {
			break
		}
		if cand := r.wd.sup[p][i]; cand != w {
			ks = append(ks, cand)
		}
	}
	q := &request{kind: opEstimate, due: due, q: pitot.Query{Workload: w, Platform: p, Interferers: ks}}
	body := serve.EstimateRequest{Workload: w, Platform: p, Interferers: ks}
	if bound {
		q.kind = opBound
		body.Eps = servingEps
	}
	q.truth = r.wd.cl.MeasureSeconds(r.rng, w, p, ks)
	q.body = mustJSON(body)
	return q
}

// placeReq builds a /place request of n jobs: one job drawn from the
// skewed popularity, or a wave drawn uniformly from the pool.
func (r *run) placeReq(due time.Duration, kind opKind, n int) *request {
	q := &request{kind: kind, due: due}
	var body serve.PlaceRequest
	for i := 0; i < n; i++ {
		var w int
		if kind == opPlace {
			w = r.wd.pool[r.zipf.Uint64()]
		} else {
			w = r.wd.pool[r.rng.Intn(len(r.wd.pool))]
		}
		j := &job{seq: uint64(r.rng.Int63()), w: w, deadline: deadlineFactor * r.wd.ref[w]}
		q.jobs = append(q.jobs, j)
		body.Jobs = append(body.Jobs, serve.JobSpec{Workload: w, Deadline: j.deadline})
	}
	q.body = mustJSON(body)
	return q
}

// clone copies a request's input (not its outcome) with a new due time;
// jobs are copied too, since each placement has its own fate.
func (r *run) clone(q *request, due time.Duration, ph *phase) *request {
	c := &request{kind: q.kind, body: q.body, phase: ph, q: q.q, truth: q.truth, due: due}
	for _, j := range q.jobs {
		r.clones++
		c.jobs = append(c.jobs, &job{seq: j.seq ^ r.clones, w: j.w, deadline: j.deadline})
	}
	return c
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs of ints and finite floats always encode
	}
	return b
}

// exec sends one queued request and checks its reply.
func (r *run) exec(c *client, q *request) {
	switch q.kind {
	case opEstimate, opBound:
		body := r.eng.send(c, q, "POST", "/"+opRoute[q.kind])
		if q.failed {
			r.g.failf("%s: status %d", opRoute[q.kind], q.status)
			return
		}
		var resp serve.PredictionResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			r.g.failf("%s: decode reply: %v", opRoute[q.kind], err)
			return
		}
		if resp.Infeasible || !(resp.Seconds > 0) || math.IsInf(resp.Seconds, 0) {
			r.g.failf("%s: reply seconds %v infeasible=%v", opRoute[q.kind], resp.Seconds, resp.Infeasible)
		}
		q.seconds, q.version = resp.Seconds, resp.Version
	case opPlace, opWave:
		body := r.eng.send(c, q, "POST", "/place")
		r.onPlaced(q, body)
	case opComplete:
		r.complete(c, q)
	}
}

// onPlaced checks a /place reply job by job and schedules the completion
// of every placed job after its compressed true runtime.
func (r *run) onPlaced(q *request, body []byte) {
	if q.failed {
		r.g.failf("place: status %d", q.status)
		return
	}
	var resp serve.PlaceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		r.g.failf("place: decode reply: %v", err)
		return
	}
	if len(resp.Assignments) != len(q.jobs) {
		r.g.failf("place: %d assignments for %d jobs", len(resp.Assignments), len(q.jobs))
		return
	}
	var holds []*request
	r.mu.Lock()
	for i, a := range resp.Assignments {
		j := q.jobs[i]
		r.requested++
		if a.Workload != j.w || a.Deadline != j.deadline {
			r.g.failf("place: assignment %d echoes workload %d deadline %v, sent %d %v", i, a.Workload, a.Deadline, j.w, j.deadline)
		}
		if !a.Placed {
			r.unplacedN++
			j.reason = a.Reason
			switch a.Reason {
			case sched.ReasonAdmission, sched.ReasonNoHealthy, sched.ReasonCapacity, sched.ReasonInfeasible, sched.ReasonConflict:
			default:
				r.g.failf("place: unplaced job with unknown reason %q", a.Reason)
			}
			continue
		}
		r.placedN++
		if r.ids[a.ID] || a.ID == 0 {
			r.g.failf("place: job id %d reused", a.ID)
		}
		if a.Platform < 0 || a.Platform >= r.wd.np {
			r.g.failf("place: platform %d out of range", a.Platform)
			continue
		}
		if !(a.Budget > 0) || a.Budget > j.deadline {
			r.g.failf("place: budget %v outside (0, deadline %v]", a.Budget, j.deadline)
		}
		j.placed, j.id, j.platform, j.budget = true, a.ID, a.Platform, a.Budget
		r.ids[a.ID] = true
		for _, o := range r.residents[a.Platform] {
			j.ks = append(j.ks, o.w)
		}
		r.residents[a.Platform] = append(r.residents[a.Platform], j)
		j.truth = r.wd.cl.MeasureSeconds(rand.New(&splitmix{s: j.seq}), j.w, j.platform, j.ks)
		hold := time.Duration(j.truth * holdCompress * float64(time.Second))
		holds = append(holds, &request{kind: opComplete, due: q.done + hold, jobs: []*job{j}})
	}
	r.mu.Unlock()
	r.inFlight.Add(int64(len(holds)))
	r.eng.push(holds...)
}

// complete retires every job carried by q, reporting deadline misses,
// and checks that the server retired exactly those jobs.
func (r *run) complete(c *client, q *request) {
	var body serve.CompleteRequest
	r.mu.Lock()
	for _, j := range q.jobs {
		body.IDs = append(body.IDs, j.id)
		if j.truth > j.deadline {
			body.Missed = append(body.Missed, j.id)
		}
		rs := r.residents[j.platform]
		for i, o := range rs {
			if o == j {
				r.residents[j.platform] = append(rs[:i:i], rs[i+1:]...)
				break
			}
		}
	}
	r.mu.Unlock()
	q.body = mustJSON(body)
	reply := r.eng.send(c, q, "POST", "/complete")
	var resp serve.CompleteResponse
	if q.failed {
		r.g.failf("complete: status %d: %s", q.status, reply)
	} else if err := json.Unmarshal(reply, &resp); err != nil {
		r.g.failf("complete: decode reply: %v", err)
	} else if resp.Completed != len(body.IDs) || len(resp.Unknown) > 0 || len(resp.Stale) > 0 {
		r.g.failf("complete: %d of %d completed, unknown %v, stale %v", resp.Completed, len(body.IDs), resp.Unknown, resp.Stale)
	}
	r.mu.Lock()
	for _, j := range q.jobs {
		r.pendingOb = append(r.pendingOb, pitot.Observation{Workload: j.w, Platform: j.platform, Interferers: j.ks, Seconds: j.truth})
	}
	r.completed += len(q.jobs)
	r.mu.Unlock()
	r.inFlight.Add(-int64(len(q.jobs)))
}

// observeLoop is the feedback workload's writer: closed-loop /observe
// calls posting the measured runtimes of the most recently completed
// jobs, until end. Calls run back to back, so the fine-tune contends
// with the reads for the whole window.
func (r *run) observeLoop(c *client, end time.Duration, done chan<- struct{}) {
	defer close(done)
	var last uint64
	for {
		time.Sleep(observePause)
		now := r.eng.now()
		if now > end {
			return
		}
		r.mu.Lock()
		obs := r.pendingOb
		if len(obs) > observeBatch {
			obs = obs[len(obs)-observeBatch:]
		}
		r.pendingOb = nil
		r.mu.Unlock()
		if len(obs) == 0 {
			continue
		}
		q := &request{kind: opObserve, due: now, ready: now, body: mustJSON(serve.ObserveRequest{Observations: obs})}
		reply := r.eng.send(c, q, "POST", "/observe")
		var resp serve.ObserveResponse
		switch {
		case q.failed:
			r.g.failf("observe: status %d: %s", q.status, reply)
		case json.Unmarshal(reply, &resp) != nil:
			r.g.failf("observe: undecodable reply")
		case resp.Accepted != len(obs):
			r.g.failf("observe: accepted %d of %d", resp.Accepted, len(obs))
		case resp.Version <= last:
			r.g.failf("observe: version %d after %d", resp.Version, last)
		}
		last = resp.Version
		r.mu.Lock()
		r.observes = append(r.observes, q)
		r.mu.Unlock()
	}
}

// splitmix is a tiny seeded rand.Source: each placed job draws its
// ground-truth measurement noise from its own stream, so the truth does
// not depend on the order in which replies arrive.
type splitmix struct{ s uint64 }

func (m *splitmix) Uint64() uint64 {
	m.s += 0x9e3779b97f4a7c15
	z := m.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
func (m *splitmix) Int63() int64    { return int64(m.Uint64() >> 1) }
func (m *splitmix) Seed(seed int64) { m.s = uint64(seed) }

// checkVersions verifies that each connection saw non-decreasing
// snapshot versions on /estimate and /bound: a connection's calls are
// sequential, and a reply carries the version published when it was
// written.
func checkVersions(g *gate, reqs []*request) {
	byConn := map[int][]*request{}
	for _, q := range reqs {
		if (q.kind == opEstimate || q.kind == opBound) && !q.failed && !q.dropped {
			byConn[q.conn] = append(byConn[q.conn], q)
		}
	}
	for _, qs := range byConn {
		sort.Slice(qs, func(i, j int) bool { return qs[i].sent < qs[j].sent })
		for i := 1; i < len(qs); i++ {
			if qs[i].version < qs[i-1].version {
				g.failf("%s: version %d after %d on one connection", opRoute[qs[i].kind], qs[i].version, qs[i-1].version)
			}
		}
	}
}
