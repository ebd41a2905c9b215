package main

// One run: set up, drive the workload for the measured span, drain,
// check the converged network against the simnet reference.

import (
	"fmt"
	"runtime"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/metrics"
	"cicero/internal/topology"
)

const (
	// setupRepeats is how many times an untraced run sets up: once for
	// the measured span and then again after it; setup_s is the median.
	setupRepeats = 31
	// settleTimeout bounds the wait for a closed deployment's goroutines
	// to exit.
	settleTimeout = 2 * time.Second
	// flowTimeout bounds the wait for outstanding flows after the
	// measured span; a flow still incomplete then has failed.
	flowTimeout = 30 * time.Second
	// quiesceTimeout bounds the wait for the controllers' ledgers to
	// settle before the gate reads them.
	quiesceTimeout = 30 * time.Second
	// rssEvery is the resident-memory sampling period.
	rssEvery = 50 * time.Millisecond
	// rssFlows is how many flows complete in the measured span before
	// peak_rss_mb stops sampling. Flow tables, ledgers and logs grow with
	// every flow, so a peak over a fixed number of flows, not over a fixed
	// time, keeps the metric from rising with throughput.
	rssFlows = 1000
	// warmupSpan is how long the workload runs before the measured span
	// starts. The first second after set-up is slow (the runtime's heap,
	// goroutine stacks and the switches' verification caches grow); its
	// flows are driven and checked but not measured.
	warmupSpan = 3 * time.Second
)

// setUp builds a deployment and completes its warm-up flow, repeats
// times, and returns the last deployment with its load generator and warm-up
// flow. Each repeat is timed from fabric construction to the warm-up
// flow's completion, and starts once the previous deployment's
// goroutines have exited and the heap has been collected, so that no
// set-up shares the cores with another's shutdown or garbage.
func setUp(spec workloadSpec, g *topology.Graph, pool *pairPool, seed int64, traced bool, repeats int) (*deployment, *loadGen, *flowRec, []float64, error) {
	var (
		d     *deployment
		lg    *loadGen
		warm  *flowRec
		times []float64
	)
	for i := 0; i < repeats; i++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		start := time.Now()
		var err error
		if d, err = newDeployment(spec, g, seed, tr); err != nil {
			return nil, nil, nil, nil, err
		}
		pool.rewind()
		if warm, err = pool.draw(); err != nil {
			d.close()
			return nil, nil, nil, nil, err
		}
		lg = &loadGen{net: d.net}
		lg.inject(warm, nil)
		lg.awaitCompletion(flowTimeout)
		if lg.completed.Load() != 1 {
			d.close()
			return nil, nil, nil, nil, fmt.Errorf("warm-up flow %s->%s did not complete within %v", warm.src, warm.dst, flowTimeout)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return d, lg, warm, times, nil
}

// cryptoCount is the process-wide crypto counter set at one moment.
type cryptoCount map[string]uint64

func (c cryptoCount) pairings() uint64 {
	return c["pairings"] + c["prepared_pairings"] + c["pairing_products"]
}

// mark is one reading of everything a phase diffs.
type mark struct {
	at       time.Time
	cpu      time.Duration
	counters nodeCounters
	crypto   cryptoCount
	stats    fabric.Stats
	res      livenet.ResilienceStats
	trace    *traceSnap
}

// takeMark reads the counters; the trace snapshot copies waits recorded
// since prev's.
func takeMark(d *deployment, prev *mark) (mark, error) {
	var m mark
	var err error
	if m.counters, err = d.readCounters(); err != nil {
		return m, err
	}
	m.cpu = cpuTime()
	m.at = time.Now()
	m.crypto = metrics.Crypto.Snapshot()
	m.stats = d.inner.Stats()
	m.res = d.inner.Resilience()
	if d.tr != nil {
		var from *traceSnap
		if prev != nil {
			from = prev.trace
		}
		if m.trace, err = d.tr.snapshot(d, from); err != nil {
			return m, err
		}
	}
	return m, nil
}

// phase is one measured span on one deployment.
type phase struct {
	d          *deployment
	warm       *flowRec
	flows      []*flowRec
	start, end mark
	// peakRSS is the peak resident memory from the span's start until
	// rssFlows flows completed in it (rssAt after the start), or until
	// the span's end (rssAt zero) if fewer did.
	peakRSS uint64
	rssAt   time.Duration
	gate    gateResult
}

// applied is the number of updates switches applied during the span.
func (p *phase) applied() uint64 { return p.end.counters.applied - p.start.counters.applied }

// window is the measured span's wall time.
func (p *phase) window() time.Duration { return p.end.at.Sub(p.start.at) }

// failed counts measured flows that never completed.
func (p *phase) failed() int {
	n := 0
	for _, f := range p.flows {
		if f.done.IsZero() {
			n++
		}
	}
	return n
}

// cpuPerUpdateMs is the whole process's CPU per applied update.
func (p *phase) cpuPerUpdateMs() float64 {
	return ratio(float64(p.end.cpu-p.start.cpu)/float64(time.Millisecond), float64(p.applied()))
}

// latenciesMs returns completed flows' latencies in milliseconds.
func (p *phase) latenciesMs() []float64 {
	var out []float64
	for _, f := range p.flows {
		if l, ok := f.latency(); ok {
			out = append(out, float64(l)/float64(time.Millisecond))
		}
	}
	return out
}

// runPhase drives the workload on a set-up deployment for span, drains
// it, and checks it against the simnet reference.
func runPhase(d *deployment, lg *loadGen, warm *flowRec, pool *pairPool, g *topology.Graph, seed int64, span time.Duration) (*phase, error) {
	p := &phase{d: d, warm: warm}
	begin := time.Now()
	stop := make(chan struct{})
	type genResult struct {
		flows []*flowRec
		err   error
	}
	genDone := make(chan genResult, 1)
	go func() {
		var r genResult
		r.flows, r.err = lg.closedLoop(pool, d.spec.window, stop)
		genDone <- r
	}()
	time.Sleep(time.Until(begin.Add(warmupSpan)))
	startMark, markErr := takeMark(d, nil)
	p.start = startMark
	deadline := p.start.at.Add(span)
	completed := lg.completed.Load()
	for markErr == nil {
		if p.rssAt == 0 {
			if rss := residentBytes(); rss > p.peakRSS {
				p.peakRSS = rss
			}
			if lg.completed.Load()-completed >= rssFlows {
				p.rssAt = time.Since(p.start.at)
			}
		}
		left := time.Until(deadline)
		if left <= 0 {
			break
		}
		time.Sleep(min(left, rssEvery))
	}
	close(stop)
	var endMark mark
	if markErr == nil {
		endMark, markErr = takeMark(d, &p.start)
	}
	gen := <-genDone
	lg.awaitCompletion(flowTimeout)
	if markErr != nil {
		return nil, markErr
	}
	p.end = endMark
	var warmup []*flowRec
	for _, f := range gen.flows {
		if f.sent.Before(p.start.at) {
			warmup = append(warmup, f)
		} else {
			p.flows = append(p.flows, f)
		}
	}
	if gen.err != nil {
		return nil, gen.err
	}
	// Barrier: every arrival and completion a switch recorded is visible
	// after its next invoke.
	if err := d.invokeAll(d.switchIDs(), func(string) {}); err != nil {
		return nil, err
	}
	final, err := d.readCounters()
	if err != nil {
		return nil, err
	}
	all := append(append([]*flowRec{warm}, warmup...), p.flows...)
	if p.gate, err = checkDeployment(d, g, seed, all, final.rejected); err != nil {
		return nil, err
	}
	return p, nil
}
