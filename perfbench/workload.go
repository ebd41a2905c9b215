package main

// The workloads and the load generators that drive them. The
// program under test sees only the generated arrivals: each is a table
// miss (PacketArrival) of a host pair no earlier arrival used, handed to
// the ingress switch through Invoke.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"cicero/internal/core"
	"cicero/internal/fabric"
	"cicero/internal/topology"
)

// workloadSpec is one named workload: a closed loop that keeps window
// flows outstanding.
type workloadSpec struct {
	name    string
	backend string // "inproc" or "tcp"
	batch   int
	window  int
}

// workloads are the benchmark's workloads by name; BENCHMARK.json says
// why each exists.
var workloads = map[string]workloadSpec{
	// Crypto-bound capacity of the per-update path.
	"closed-b1": {name: "closed-b1", backend: "inproc", batch: 1, window: 8},
	// The same load over the deployed transport: TCP framing and the
	// wire codec on every message.
	"tcp-b1": {name: "tcp-b1", backend: "tcp", batch: 1, window: 8},
}

// workloadNames lists the workloads in sorted order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// warmCandidates is how many pairs of the deal are searched for the
// warm-up flow. Most pairs of the pod take its longest path, so the
// search always finds one.
const warmCandidates = 256

// pairPool deals distinct host pairs in a seeded order.
type pairPool struct {
	pairs [][2]string
	tor   map[string]string
	next  int
}

// newPairPool shuffles every ordered pair of distinct hosts. Every such
// pair crosses at least its source's ToR, so with per-pair rules each
// draw is a real table miss.
func newPairPool(g *topology.Graph, seed int64) (*pairPool, error) {
	p := &pairPool{tor: make(map[string]string)}
	var hosts []string
	for _, n := range g.NodesOfKind(topology.KindHost) {
		edges := g.Neighbors(n.ID)
		if len(edges) != 1 {
			return nil, fmt.Errorf("host %s has %d links, want 1", n.ID, len(edges))
		}
		hosts = append(hosts, n.ID)
		p.tor[n.ID] = edges[0].To
	}
	sort.Strings(hosts)
	for _, src := range hosts {
		for _, dst := range hosts {
			if src != dst {
				p.pairs = append(p.pairs, [2]string{src, dst})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(p.pairs), func(i, j int) { p.pairs[i], p.pairs[j] = p.pairs[j], p.pairs[i] })
	// The first pair dealt is the set-up's warm-up flow. Make it the
	// first of the deal with the longest path, so that set-up installs
	// the same number of rules on every seed.
	longest, hops := 0, 0
	for i, pair := range p.pairs[:min(len(p.pairs), warmCandidates)] {
		if n := len(g.SwitchesOnPath(g.ShortestPath(pair[0], pair[1]))); n > hops {
			longest, hops = i, n
		}
	}
	p.pairs[0], p.pairs[longest] = p.pairs[longest], p.pairs[0]
	return p, nil
}

// draw returns the next unused pair as a fresh flow record.
func (p *pairPool) draw() (*flowRec, error) {
	if p.next >= len(p.pairs) {
		return nil, fmt.Errorf("pair pool exhausted after %d flows: enlarge benchTopology", p.next)
	}
	pair := p.pairs[p.next]
	p.next++
	return &flowRec{src: pair[0], dst: pair[1], ingress: p.tor[pair[0]]}, nil
}

// rewind restarts the deal, for a fresh deployment.
func (p *pairPool) rewind() { p.next = 0 }

// flowRec is one generated arrival and what became of it. The generator
// writes sent before handing the arrival over; the ingress switch's
// goroutine writes order, arrived and done; readers synchronize through
// the completion counter or an invoke barrier.
type flowRec struct {
	src, dst, ingress string
	sent              time.Time // generator handed the arrival to the fabric
	arrived           time.Time // PacketArrival ran at the ingress switch
	done              time.Time // ingress rule installed (zero: not yet)
	order             int64     // global arrival order (1-based)
}

// latency is the flow's time from table miss to ingress rule
// installation.
func (f *flowRec) latency() (time.Duration, bool) {
	if f.done.IsZero() {
		return 0, false
	}
	return f.done.Sub(f.arrived), true
}

// loadGen injects arrivals into one deployment.
type loadGen struct {
	net       *core.Network
	order     atomic.Int64
	injected  atomic.Int64
	completed atomic.Int64
}

// inject hands one arrival to its ingress switch. onDone runs on the
// switch's goroutine when the ingress rule is installed; it must not
// block. Under reverse-path scheduling the ingress rule is installed
// last, so ingress readiness means the whole path is ready.
func (lg *loadGen) inject(f *flowRec, onDone func()) {
	sw := lg.net.Switches[f.ingress]
	lg.injected.Add(1)
	f.sent = time.Now()
	lg.net.Fab.Invoke(fabric.NodeID(f.ingress), func() {
		f.order = lg.order.Add(1)
		f.arrived = time.Now()
		sw.Subscribe(f.src, f.dst, func(fabric.Time) {
			f.done = time.Now()
			lg.completed.Add(1)
			if onDone != nil {
				onDone()
			}
		})
		sw.PacketArrival(f.src, f.dst)
	})
}

// awaitCompletion waits until every injected flow completed or the timeout
// passed.
func (lg *loadGen) awaitCompletion(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for lg.completed.Load() < lg.injected.Load() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
}

// closedLoop keeps window flows outstanding until stop closes, and
// returns the flows it injected. It is the closed loop's only generator
// goroutine.
func (lg *loadGen) closedLoop(pool *pairPool, window int, stop <-chan struct{}) ([]*flowRec, error) {
	// Sized to the window: at most window flows are outstanding, so a
	// completion never blocks the switch goroutine that reports it.
	doneCh := make(chan struct{}, window)
	signal := func() { doneCh <- struct{}{} }
	var flows []*flowRec
	launch := func() error {
		f, err := pool.draw()
		if err != nil {
			return err
		}
		flows = append(flows, f)
		lg.inject(f, signal)
		return nil
	}
	for i := 0; i < window; i++ {
		if err := launch(); err != nil {
			return flows, err
		}
	}
	for {
		select {
		case <-stop:
			return flows, nil
		case <-doneCh:
			if err := launch(); err != nil {
				return flows, err
			}
		}
	}
}
