package main

// Building and inspecting one live deployment. Everything here goes
// through the exported APIs: core.Build on a livenet fabric, switch and
// controller methods run in each node's serial context via Invoke.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/protocol"
	"cicero/internal/topology"
)

// invokeTimeout bounds every read of node state through Invoke.
const invokeTimeout = 30 * time.Second

// benchTopology is the data plane of every workload: one pod of 8 racks
// (8 ToRs under 4 edge switches) with 32 hosts per rack. 256 hosts give
// 65280 ordered pairs, so no run reuses a pair even at several times
// today's flow rates.
func benchTopology() (*topology.Graph, error) {
	cfg := topology.DefaultFabricConfig()
	cfg.RacksPerPod = 8
	cfg.HostsPerRack = 32
	return topology.BuildSinglePod(cfg)
}

// liveFabric is what the benchmark needs from a livenet backend beyond
// the fabric seam.
type liveFabric interface {
	fabric.Fabric
	sendErrer
	Resilience() livenet.ResilienceStats
	Close()
}

// deployment is one assembled live network.
type deployment struct {
	spec  workloadSpec
	inner liveFabric
	net   *core.Network
	// tr is nil on untraced deployments.
	tr *tracer
	// goroutines is how many goroutines the process ran before the
	// deployment was built.
	goroutines int
}

// newDeployment builds the workload's backend and assembles Cicero on it
// with real crypto. A non-nil tracer wraps the fabric and the codec.
func newDeployment(spec workloadSpec, g *topology.Graph, seed int64, tr *tracer) (*deployment, error) {
	goroutines := runtime.NumGoroutine()
	var codec livenet.Codec = protocol.NewWireCodec(nil)
	if tr != nil {
		codec = tr.wrapCodec(codec)
	}
	var inner liveFabric
	switch spec.backend {
	case "inproc":
		inner = livenet.NewInProc(codec)
	case "tcp":
		f, err := livenet.NewTCP(codec)
		if err != nil {
			return nil, err
		}
		inner = f
	default:
		return nil, fmt.Errorf("unknown backend %q", spec.backend)
	}
	var fab fabric.Fabric = inner
	if tr != nil {
		fab = tr.wrapFabric(inner)
	}
	n, err := core.Build(deployConfig(spec, g, seed, fab))
	if err != nil {
		inner.Close()
		return nil, err
	}
	return &deployment{spec: spec, inner: inner, net: n, tr: tr, goroutines: goroutines}, nil
}

// deployConfig is the live deployment of a workload, or with a nil
// fabric its simnet reference: Cicero with switch aggregation and
// per-pair rules.
func deployConfig(spec workloadSpec, g *topology.Graph, seed int64, fab fabric.Fabric) core.Config {
	cfg := core.Config{
		Graph:     g,
		PairRules: true,
		Cost:      protocol.Calibrated(),
		Seed:      seed,
	}
	if fab == nil {
		// The reference is the batch=1 simulator run: batching must never
		// change what the network converges to.
		return cfg
	}
	cfg.Fabric = fab
	cfg.CryptoReal = true
	cfg.BatchSize = spec.batch
	// Live nodes share two cores with the load generator; a sub-second
	// view-change timeout would misread scheduling hiccups as a failed
	// primary.
	cfg.ViewChangeTimeout = 5 * time.Second
	return cfg
}

// close shuts the deployment down and waits, up to settleTimeout, for
// its goroutines to exit, so that whatever runs next does not share the
// cores with them.
func (d *deployment) close() {
	d.inner.Close()
	for start := time.Now(); runtime.NumGoroutine() > d.goroutines && time.Since(start) < settleTimeout; {
		time.Sleep(time.Millisecond)
	}
}

// switchIDs returns the switch ids in sorted order.
func (d *deployment) switchIDs() []string {
	ids := make([]string, 0, len(d.net.Switches))
	for id := range d.net.Switches {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// controllerIDs returns every controller id in domain order.
func (d *deployment) controllerIDs() []string {
	var ids []string
	for _, dom := range d.net.Domains {
		for _, c := range dom.Controllers {
			ids = append(ids, string(c.ID()))
		}
	}
	return ids
}

// invokeAll runs fn(id) in the serial context of every listed node, all
// nodes in parallel, and waits for every call. fn must only touch the
// state of the node it is given.
func (d *deployment) invokeAll(ids []string, fn func(id string)) error {
	var wg sync.WaitGroup
	wg.Add(len(ids))
	for _, id := range ids {
		id := id
		d.net.Fab.Invoke(fabric.NodeID(id), func() {
			defer wg.Done()
			fn(id)
		})
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(invokeTimeout):
		// The waiter goroutine exits when the late invokes run or the
		// fabric closes and drops them; either way the run has failed.
		return fmt.Errorf("nodes did not run an invoke within %v", invokeTimeout)
	}
}

// nodeCounters is one read of the counters the benchmark reports.
type nodeCounters struct {
	applied, rejected uint64
	// views sums the controllers' BFT view numbers: each view change
	// advances one replica's view by at least one.
	views uint64
}

// controllers maps controller ids to controllers.
func (d *deployment) controllers() map[string]*controlplane.Controller {
	out := make(map[string]*controlplane.Controller)
	for _, dom := range d.net.Domains {
		for _, c := range dom.Controllers {
			out[string(c.ID())] = c
		}
	}
	return out
}

// readCounters reads every switch and controller counter.
func (d *deployment) readCounters() (nodeCounters, error) {
	var mu sync.Mutex
	var c nodeCounters
	err := d.invokeAll(d.switchIDs(), func(id string) {
		sw := d.net.Switches[id]
		mu.Lock()
		c.applied += sw.UpdatesApplied
		c.rejected += sw.UpdatesRejected
		mu.Unlock()
	})
	if err != nil {
		return c, err
	}
	ctls := d.controllers()
	err = d.invokeAll(d.controllerIDs(), func(id string) {
		ctl := ctls[id]
		view, _ := ctl.BroadcastCoords()
		mu.Lock()
		c.views += view
		mu.Unlock()
	})
	return c, err
}

// awaitQuiescence waits until every controller's audit ledger has the
// same length across two consecutive polls: trailing BFT deliveries and
// share traffic drain before the digests are read.
func (d *deployment) awaitQuiescence(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	ctls := d.controllers()
	ids := d.controllerIDs()
	var prev []int
	stable := 0
	for time.Now().Before(deadline) {
		lens := make(map[string]int, len(ids))
		var mu sync.Mutex
		if err := d.invokeAll(ids, func(id string) {
			n := len(ctls[id].AuditRecords())
			mu.Lock()
			lens[id] = n
			mu.Unlock()
		}); err != nil {
			return err
		}
		cur := make([]int, len(ids))
		same := prev != nil
		for i, id := range ids {
			cur[i] = lens[id]
			if cur[i] != cur[0] || (same && cur[i] != prev[i]) {
				same = false
			}
		}
		if same {
			stable++
			if stable >= 2 {
				return nil
			}
		} else {
			stable = 0
		}
		prev = cur
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("controllers did not quiesce within %v", timeout)
}
