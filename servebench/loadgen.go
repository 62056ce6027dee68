package main

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"

	pitot "repro"
)

type opKind uint8

const (
	opEstimate opKind = iota // POST /estimate
	opBound                  // POST /bound
	opPlace                  // POST /place, one job
	opWave                   // POST /place, a wave of jobs
	opComplete               // POST /complete for every job due by now
	opObserve                // POST /observe (closed loop, never queued)
	numOpKinds
)

var opRoute = [numOpKinds]string{"estimate", "bound", "place", "place", "complete", "observe"}

// request is one HTTP call the generator makes, with its timing and the
// workload's view of the reply. Workers write a request's fields while
// executing it; the main goroutine reads them only after the phase's
// WaitGroup (or the engine's shutdown) orders the two.
type request struct {
	kind  opKind
	body  []byte
	phase *phase // nil for background calls (completions)

	// estimate/bound: the query and the ground-truth runtime it is
	// scored against.
	q     pitot.Query
	truth float64
	// place/wave/complete: the jobs carried.
	jobs []*job

	// Timing, as offsets from the engine's start. ready is when a
	// connection was free to send the request: its due time, or later if
	// every connection was busy then. idle marks requests whose
	// connection was free before the due time.
	reqID                  uint64
	conn                   int // client.id of the connection that sent it
	due, ready, sent, done time.Duration
	idle                   bool
	dropped                bool // a capacity probe ended before it could be sent
	status                 int
	failed                 bool
	reqBytes, rspLen       int64

	// Reply payload for estimate/bound.
	seconds float64
	version uint64
}

// latency is the time from when the request was due to when its reply
// was read, less the generator's own timer overshoot (sent - ready, see
// late): the wait for a busy connection counts, so a stall in the server
// shows up in every request queued behind it, but a late wake-up of the
// generator's timer does not.
func (r *request) latency() time.Duration { return r.done - r.due - r.late() }

// late is how long after the request could go out the generator sent it.
func (r *request) late() time.Duration { return r.sent - r.ready }

// phase groups the open-loop requests of one measurement interval.
type phase struct {
	reqs    []*request
	cutoff  time.Duration // requests still unsent at this offset are dropped; 0 = never
	wg      sync.WaitGroup
	pending atomic.Int64 // queued and not yet answered or dropped
}

// add queues reqs as part of the phase.
func (p *phase) add(e *engine, reqs []*request) {
	p.reqs = append(p.reqs, reqs...)
	p.wg.Add(len(reqs))
	p.pending.Add(int64(len(reqs)))
	e.push(reqs...)
}

func (p *phase) done() {
	p.pending.Add(-1)
	p.wg.Done()
}

type queued struct {
	due time.Duration
	seq uint64 // FIFO among equal due times
	req *request
}

type opHeap []queued

func (h opHeap) Len() int { return len(h) }
func (h opHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h opHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)   { *h = append(*h, x.(queued)) }
func (h *opHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// engine is the open-loop load generator: a due-time-ordered queue of
// requests served by a fixed set of connections. A connection takes the
// earliest request, waits for its due time if it is early, sends it and
// reads the reply; requests that fall due while every connection is busy
// wait in the queue and are timed from their due time.
type engine struct {
	start time.Time
	exec  func(c *client, r *request) // sends r and interprets the reply

	mu     sync.Mutex
	ops    opHeap
	seq    uint64
	wake   chan struct{} // closed and replaced when the earliest due time moves up
	closed bool

	nextID    atomic.Uint64
	attempted atomic.Int64 // every call made, on any connection
	failed    atomic.Int64 // calls that errored or got a non-2xx reply
	workers   sync.WaitGroup
}

func newEngine(exec func(c *client, r *request)) *engine {
	return &engine{start: time.Now(), exec: exec, wake: make(chan struct{})}
}

func (e *engine) now() time.Duration { return time.Since(e.start) }

// push queues requests at their due offsets.
func (e *engine) push(reqs ...*request) {
	e.mu.Lock()
	defer e.mu.Unlock()
	earliest := time.Duration(1<<63 - 1)
	if len(e.ops) > 0 {
		earliest = e.ops[0].due
	}
	moved := false
	for _, r := range reqs {
		e.seq++
		heap.Push(&e.ops, queued{due: r.due, seq: e.seq, req: r})
		if r.due < earliest {
			earliest, moved = r.due, true
		}
	}
	if moved {
		close(e.wake)
		e.wake = make(chan struct{})
	}
}

// runPhase queues reqs as phase p and waits until each was sent and
// answered, or dropped at the phase's cutoff.
func (e *engine) runPhase(p *phase, reqs []*request) {
	p.add(e, reqs)
	p.wg.Wait()
}

// serve runs one connection until the engine is closed.
func (e *engine) serve(c *client, pc *pacer) {
	defer e.workers.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		r, idle, ok := e.next(timer, pc)
		if !ok {
			return
		}
		if r.phase != nil && r.phase.cutoff > 0 && e.now() > r.phase.cutoff {
			r.dropped = true
			r.phase.done()
			continue
		}
		// A busy connection frees up after the due time; the request
		// could go out from then on.
		r.idle, r.ready = idle, r.due
		if !idle {
			r.ready = max(r.due, e.now())
		}
		e.exec(c, r)
		if r.phase != nil {
			r.phase.done()
		}
	}
}

// next pops the earliest request once it is at most coarseHorizon away,
// then sleeps precisely until its due time. idle reports that the
// connection was waiting for the request rather than the other way round.
func (e *engine) next(timer *time.Timer, pc *pacer) (*request, bool, bool) {
	for {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return nil, false, false
		}
		wake := e.wake
		if len(e.ops) == 0 {
			e.mu.Unlock()
			<-wake
			continue
		}
		top := e.ops[0]
		wait := top.due - e.now()
		if wait > coarseHorizon {
			e.mu.Unlock()
			timer.Reset(wait - coarseHorizon)
			select {
			case <-timer.C:
			case <-wake:
				if !timer.Stop() {
					<-timer.C
				}
			}
			continue
		}
		heap.Pop(&e.ops)
		r := top.req
		if r.kind == opComplete {
			// Fold every completion already due into this call.
			for len(e.ops) > 0 && e.ops[0].req.kind == opComplete && e.ops[0].due <= top.due+time.Millisecond {
				r.jobs = append(r.jobs, heap.Pop(&e.ops).(queued).req.jobs...)
			}
		}
		e.mu.Unlock()
		if wait > 0 {
			if err := pc.sleepUntil(e.start.Add(top.due)); err != nil {
				// Only a broken timerfd gets here; the request then goes
				// out as soon as a Go timer allows.
				time.Sleep(time.Until(e.start.Add(top.due)))
			}
		}
		return r, wait > 0, true
	}
}

// close stops the connections after their current request and waits for
// them. Queued requests stay unsent.
func (e *engine) close() {
	e.mu.Lock()
	e.closed = true
	close(e.wake)
	e.wake = make(chan struct{})
	e.mu.Unlock()
	e.workers.Wait()
}

// send executes r on c, filling in its timing, status and byte counts.
func (e *engine) send(c *client, r *request, method, path string) []byte {
	r.reqID = e.nextID.Add(1)
	r.conn = c.id
	r.sent = e.now()
	status, body, err := c.do(method, path, r.body, r.reqID)
	r.done = e.now()
	r.reqBytes, r.rspLen = c.lastOut, c.lastIn
	r.status = status
	r.failed = err != nil || status/100 != 2
	e.attempted.Add(1)
	if r.failed {
		e.failed.Add(1)
	}
	if err != nil {
		// The failure is already counted; a fresh connection keeps the
		// rest of the run measurable. A failed redial fails later calls.
		_ = c.redial()
	}
	return body
}
