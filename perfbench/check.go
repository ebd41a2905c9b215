package main

// The correctness gate. A live run must converge to exactly what a
// simnet run of the same flow set converges to: the same flow tables
// (canonical sorted-rule digest) and, at every controller, the same
// audit-ledger content restricted to flow records. Policy publications
// carry a wall-clock timestamp, so their ledger records are left out.
// The gate also requires that no switch rejected an update.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"cicero/internal/audit"
	"cicero/internal/core"
	"cicero/internal/openflow"
	"cicero/internal/topology"
	"cicero/internal/workload"
)

// referenceSpacing separates reference flows in simulated time, so the
// simulator handles them one at a time; only the per-ingress arrival
// order matters for the converged state.
const referenceSpacing = 100 * time.Millisecond

// digests is the canonical converged state of one network.
type digests struct {
	table string
	// ledgers is each controller's flow-record content digest.
	ledgers map[string]string
}

// tableDigest hashes the sorted rule lines of the given tables.
func tableDigest(tables map[string][]openflow.Rule) string {
	var lines []string
	for id, rules := range tables {
		for _, r := range rules {
			lines = append(lines, fmt.Sprintf("%s|%d|%s|%s|%d", id, r.Priority, r.Match, r.Action, r.Cookie))
		}
	}
	return hashLines(lines)
}

func hashLines(lines []string) string {
	sort.Strings(lines)
	h := sha256.New()
	for _, line := range lines {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// flowRecords keeps the ledger records of flow events and the updates
// they caused. Flow events originate at switches; their updates' ids
// extend the event id. Policy publications originate at controllers.
func flowRecords(records []audit.Record, switches map[string]bool) []audit.Record {
	var out []audit.Record
	for _, r := range records {
		origin, _, _ := strings.Cut(r.Subject, "#")
		if switches[origin] {
			out = append(out, r)
		}
	}
	return out
}

// ledgerDigest is the content digest of a ledger's flow records.
func ledgerDigest(records []audit.Record, switches map[string]bool) string {
	d := audit.ContentDigest(flowRecords(records, switches))
	return hex.EncodeToString(d[:])
}

// liveDigests reads a quiesced live deployment's converged state.
func (d *deployment) liveDigests() (digests, error) {
	out := digests{ledgers: make(map[string]string)}
	switches := make(map[string]bool)
	for id := range d.net.Switches {
		switches[id] = true
	}
	var mu sync.Mutex
	tables := make(map[string][]openflow.Rule)
	if err := d.invokeAll(d.switchIDs(), func(id string) {
		rules := d.net.Switches[id].Table().Rules()
		mu.Lock()
		tables[id] = rules
		mu.Unlock()
	}); err != nil {
		return out, err
	}
	out.table = tableDigest(tables)
	ctls := d.controllers()
	err := d.invokeAll(d.controllerIDs(), func(id string) {
		dg := ledgerDigest(ctls[id].AuditRecords(), switches)
		mu.Lock()
		out.ledgers[id] = dg
		mu.Unlock()
	})
	return out, err
}

// referenceDigests runs the flows on the simulator, in the given order,
// and returns the converged state.
func referenceDigests(spec workloadSpec, g *topology.Graph, seed int64, pairs [][2]string) (digests, error) {
	out := digests{ledgers: make(map[string]string)}
	n, err := core.Build(deployConfig(spec, g, seed, nil))
	if err != nil {
		return out, err
	}
	flows := make([]workload.Flow, len(pairs))
	for i, p := range pairs {
		flows[i] = workload.Flow{
			ID:     uint64(i + 1),
			Src:    p[0],
			Dst:    p[1],
			SizeKB: 64,
			Start:  time.Duration(i) * referenceSpacing,
		}
	}
	if _, err := n.RunFlows(flows, core.RunOptions{}); err != nil {
		return out, err
	}
	switches := make(map[string]bool)
	tables := make(map[string][]openflow.Rule)
	for id, sw := range n.Switches {
		switches[id] = true
		tables[id] = sw.Table().Rules()
	}
	out.table = tableDigest(tables)
	for _, dom := range n.Domains {
		for _, c := range dom.Controllers {
			out.ledgers[string(c.ID())] = ledgerDigest(c.AuditRecords(), switches)
		}
	}
	return out, nil
}

// arrivalOrder returns the pairs of the flows that reached their ingress
// switch, in global arrival order. Arrivals at one switch are ordered by
// its serial context, and event ids follow that order.
func arrivalOrder(flows []*flowRec) [][2]string {
	arrived := make([]*flowRec, 0, len(flows))
	for _, f := range flows {
		if f.order > 0 {
			arrived = append(arrived, f)
		}
	}
	sort.Slice(arrived, func(i, j int) bool { return arrived[i].order < arrived[j].order })
	pairs := make([][2]string, len(arrived))
	for i, f := range arrived {
		pairs[i] = [2]string{f.src, f.dst}
	}
	return pairs
}

// gateResult is the correctness verdict of one deployment.
type gateResult struct {
	failures []string
	table    string
}

func (g gateResult) ok() bool { return len(g.failures) == 0 }

// checkDeployment compares a quiesced live deployment with the simnet
// reference of its flows (warm-up included).
func checkDeployment(d *deployment, g *topology.Graph, seed int64, flows []*flowRec, rejected uint64) (gateResult, error) {
	var res gateResult
	if err := d.awaitQuiescence(quiesceTimeout); err != nil {
		return res, err
	}
	live, err := d.liveDigests()
	if err != nil {
		return res, err
	}
	ref, err := referenceDigests(d.spec, g, seed, arrivalOrder(flows))
	if err != nil {
		return res, fmt.Errorf("simnet reference: %w", err)
	}
	res.table = live.table
	if live.table != ref.table {
		res.failures = append(res.failures, fmt.Sprintf("flow tables differ from the simnet reference (live %.12s, reference %.12s)", live.table, ref.table))
	}
	for _, id := range d.controllerIDs() {
		if live.ledgers[id] != ref.ledgers[id] {
			res.failures = append(res.failures, fmt.Sprintf("controller %s: flow ledger differs from the simnet reference", id))
		}
	}
	if rejected != 0 {
		res.failures = append(res.failures, fmt.Sprintf("switches rejected %d updates", rejected))
	}
	return res, nil
}
