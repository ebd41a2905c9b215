package main

// The traced run and the per-layer metrics. The workload runs three
// times on fresh deployments with the same seed, so every phase deals
// the same pairs: untraced for a quarter of the span, traced (the fabric
// and codec wrapped) for half, and untraced again for a quarter. The
// untraced phases are the baseline for trace.overhead_frac and for the
// count cross-check; one on each side of the traced phase cancels a
// host whose speed drifts steadily through the run. Crypto unit costs
// come from timed calls into the tcrypto packages with the run's own
// scheme and group key, made after the traced phase.

import (
	"crypto/rand"
	"fmt"
	"math"
	"sort"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/routing"
	"cicero/internal/scheduler"
	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/merkle"
	"cicero/internal/tcrypto/pairing"
	"cicero/internal/tcrypto/pki"
	"cicero/internal/topology"
)

const (
	// timedCalls is how many calls each unit cost is the median of.
	timedCalls = 64
	// planSamples bounds how many of the run's pairs are planned.
	planSamples = 256
	// merkleLeaves is the proof size timed: a full batch of 32.
	merkleLeaves = 32
)

// runLayers is the traced run.
func runLayers(spec workloadSpec, seed int64, span time.Duration, root string) (result, []string, envStamp, error) {
	var res result
	g, err := benchTopology()
	if err != nil {
		return res, nil, envStamp{}, err
	}
	pool, err := newPairPool(g, seed)
	if err != nil {
		return res, nil, envStamp{}, err
	}
	// phaseOn sets up a fresh deployment, runs the workload on it and
	// closes it; its network stays readable.
	phaseOn := func(traced bool, span time.Duration) (*phase, error) {
		d, lg, warm, _, err := setUp(spec, g, pool, seed, traced, 1)
		if err != nil {
			return nil, err
		}
		defer d.close()
		return runPhase(d, lg, warm, pool, g, seed, span)
	}
	before, err := phaseOn(false, span/4)
	if err != nil {
		return res, nil, envStamp{}, fmt.Errorf("first untraced phase: %w", err)
	}
	traced, err := phaseOn(true, span/2)
	if err != nil {
		return res, nil, envStamp{}, fmt.Errorf("traced phase: %w", err)
	}
	stamp := stampEnv(root, spec, traced.d.net, seed)
	unit, err := timeUnitCosts(traced.d.net)
	if err != nil {
		return res, nil, stamp, err
	}
	unit["scheduler.plan_us"] = timePlanning(g, traced.flows)
	after, err := phaseOn(false, span/4)
	if err != nil {
		return res, nil, stamp, fmt.Errorf("second untraced phase: %w", err)
	}
	ms, lines := layerMetrics([]*phase{before, after}, traced, unit)
	res = result{Correct: true, Metrics: ms}
	for i, p := range []*phase{before, traced, after} {
		res.Correct = res.Correct && p.gate.ok() && p.failed() == 0
		res.Attempted += len(p.flows)
		res.Failed += p.failed()
		lines = append(lines, fmt.Sprintf("%s phase: %s", []string{"first untraced", "traced", "second untraced"}[i], gateLine(p.gate)))
	}
	return res, lines, stamp, nil
}

// perRole sums one phase's handler records by role and message kind.
type perRole struct {
	kinds     map[string]map[string]kindStat // role -> kind -> stat
	waits     map[string][]float64           // role -> waits in µs
	unmatched int64
	handled   int64
}

func rolesOf(p *phase) perRole {
	out := perRole{
		kinds: map[string]map[string]kindStat{"controller": {}, "switch": {}},
		waits: map[string][]float64{},
	}
	for id, end := range p.end.trace.nodes {
		role := "controller"
		if _, ok := p.d.net.Switches[string(id)]; ok {
			role = "switch"
		}
		start := p.start.trace.nodes[id]
		for k, v := range end.kinds {
			s := out.kinds[role][k]
			s.n += v.n - start.kinds[k].n
			s.ns += v.ns - start.kinds[k].ns
			out.kinds[role][k] = s
			out.handled += v.n - start.kinds[k].n
		}
		for _, w := range end.waits {
			out.waits[role] = append(out.waits[role], float64(w)/1e3)
		}
		out.unmatched += end.unmatched - start.unmatched
	}
	for _, w := range out.waits {
		sort.Float64s(w)
	}
	return out
}

// tally is what the count cross-check and the overhead compare between
// phases.
type tally struct {
	applied, cpuMs, msgs, bytes, pairings float64
}

func tallyOf(phases ...*phase) tally {
	var t tally
	for _, p := range phases {
		t.applied += float64(p.applied())
		t.cpuMs += float64(p.end.cpu-p.start.cpu) / float64(time.Millisecond)
		t.msgs += float64(p.end.stats.Delivered - p.start.stats.Delivered)
		t.bytes += float64(p.end.stats.Bytes - p.start.stats.Bytes)
		t.pairings += float64(p.end.crypto.pairings() - p.start.crypto.pairings())
	}
	return t
}

// per is x per applied update.
func (t tally) per(x float64) float64 { return ratio(x, t.applied) }

func (t tally) String() string {
	return fmt.Sprintf("%.0f updates, %.4f ms cpu/update, %.2f msgs/update, %.1f B/update, %.4f pairings/update",
		t.applied, t.per(t.cpuMs), t.per(t.msgs), t.per(t.bytes), t.per(t.pairings))
}

// compareTallies returns the traced phase's CPU per update relative to
// the untraced phases' (0.05: 5% more) and the largest relative
// difference between them of messages, wire bytes and pairings per
// update.
func compareTallies(untraced, traced tally) (overhead, drift float64) {
	u, t := untraced, traced
	for _, c := range [][2]float64{{t.msgs, u.msgs}, {t.bytes, u.bytes}, {t.pairings, u.pairings}} {
		drift = math.Max(drift, math.Abs(ratio(t.per(c[0]), u.per(c[1]))-1))
	}
	return ratio(t.per(t.cpuMs), u.per(u.cpuMs)) - 1, drift
}

// layerMetrics derives the per-layer metrics of the traced phase; base
// holds the untraced phases of the same flows.
func layerMetrics(base []*phase, tp *phase, unit map[string]float64) (map[string]metric, []string) {
	applied := float64(tp.applied())
	per := func(x float64) float64 { return ratio(x, applied) }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	crypto := func(p *phase, key string) float64 { return float64(p.end.crypto[key] - p.start.crypto[key]) }
	r := rolesOf(tp)
	sw, ctl := r.kinds["switch"], r.kinds["controller"]
	updMsgs := sw["MsgUpdate"].n + sw["MsgBatchUpdate"].n
	quorum := controlplane.CiceroQuorum(len(tp.d.net.Domains[0].Members))
	enc := tp.end.trace.encNS - tp.start.trace.encNS
	dec := tp.end.trace.decNS - tp.start.trace.decNS
	encBytes := tp.end.trace.encBytes - tp.start.trace.encBytes

	b, t := tallyOf(base...), tallyOf(tp)
	overhead, drift := compareTallies(b, t)

	nz := func(v float64) float64 { return finite(v, 0) }
	m := map[string]metric{
		"tcrypto.pairings_per_update":  {t.per(t.pairings), "count/update"},
		"tcrypto.sig_bytes_per_update": {per(crypto(tp, "signature_bytes")), "B/update"},

		"dataplane.handle_us_per_update": {per(us(sw["MsgUpdate"].ns + sw["MsgBatchUpdate"].ns)), "us/update"},
		"dataplane.shares_per_update":    {per(float64(updMsgs)), "count/update"},
		"dataplane.useful_share_ratio":   {ratio(float64(quorum)*applied, float64(updMsgs)), "ratio"},
		"dataplane.per_update_path_frac": {ratio(float64(sw["MsgUpdate"].n), float64(updMsgs)), "ratio"},
		"dataplane.rejected":             {float64(tp.end.counters.rejected - tp.start.counters.rejected), "count"},

		"controlplane.event_us_per_update": {per(us(ctl["MsgEvent"].ns)), "us/update"},
		"controlplane.ack_us_per_update":   {per(us(ctl["MsgAck"].ns)), "us/update"},

		"bft.frames_per_update":         {per(float64(ctl["MsgBFT"].n)), "count/update"},
		"bft.handle_us_per_update":      {per(us(ctl["MsgBFT"].ns)), "us/update"},
		"bft.view_changes":              {float64(tp.end.counters.views - tp.start.counters.views), "count"},
		"protocol.encode_us_per_update": {per(us(enc)), "us/update"},
		"protocol.decode_us_per_update": {per(us(dec)), "us/update"},
		"protocol.bytes_per_update":     {per(float64(encBytes)), "B/update"},

		"livenet.msgs_per_update":        {per(float64(r.handled)), "count/update"},
		"livenet.wait_us_p50_controller": {nz(quantile(r.waits["controller"], 0.5)), "us"},
		"livenet.wait_us_p99_controller": {nz(quantile(r.waits["controller"], 0.99)), "us"},
		"livenet.wait_us_p50_switch":     {nz(quantile(r.waits["switch"], 0.5)), "us"},
		"livenet.wait_us_p99_switch":     {nz(quantile(r.waits["switch"], 0.99)), "us"},
		"livenet.wait_unmatched":         {float64(r.unmatched), "count"},
		"livenet.retries":                {float64(tp.end.res.Retries - tp.start.res.Retries), "count"},
		"livenet.reconnects":             {float64(tp.end.res.Reconnects - tp.start.res.Reconnects), "count"},
		"livenet.dropped":                {float64(tp.end.stats.Dropped - tp.start.stats.Dropped), "count"},

		"trace.overhead_frac":    {overhead, "ratio"},
		"trace.count_drift_frac": {drift, "ratio"},
	}
	for name, v := range unit {
		m[name] = metric{v, "us"}
	}
	lines := []string{
		"untraced phases: " + b.String(),
		"traced phase:    " + t.String(),
	}
	return m, lines
}

// timeEach calls fn(i) for i in [0, n) and returns the median call time
// in microseconds.
func timeEach(n int, fn func(i int)) float64 {
	times := make([]float64, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn(i)
		times[i] = float64(time.Since(start)) / 1e3
	}
	return median(times)
}

// timeUnitCosts times direct calls into the tcrypto packages with the
// deployment's scheme, group key and key shares. Every result is
// checked, so a broken primitive fails the run instead of timing well.
func timeUnitCosts(n *core.Network) (map[string]float64, error) {
	scheme := n.Scheme
	dom := n.Domains[0]
	gk := dom.GroupKey
	quorum := controlplane.CiceroQuorum(len(dom.Members))
	if len(dom.Shares) < quorum {
		return nil, fmt.Errorf("domain has %d key shares, need %d", len(dom.Shares), quorum)
	}
	msgs := make([][]byte, timedCalls)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("perfbench/update/%d", i))
	}
	out := make(map[string]float64)
	hms := make([]*pairing.Point, timedCalls)
	out["tcrypto.hash_to_g1_us"] = timeEach(timedCalls, func(i int) { hms[i] = scheme.HashToPoint(msgs[i]) })
	shares := make([][]bls.SignatureShare, timedCalls)
	out["tcrypto.sign_share_us"] = timeEach(timedCalls, func(i int) {
		shares[i] = append(shares[i], scheme.SignShareDigest(dom.Shares[0], hms[i]))
	})
	for i := range shares {
		for j := 1; j < quorum; j++ {
			shares[i] = append(shares[i], scheme.SignShareDigest(dom.Shares[j], hms[i]))
		}
	}
	sigs := make([]bls.Signature, timedCalls)
	var combineErr error
	out[fmt.Sprintf("tcrypto.combine_t%d_us", quorum)] = timeEach(timedCalls, func(i int) {
		var err error
		if sigs[i], err = scheme.Combine(gk, shares[i]); err != nil && combineErr == nil {
			combineErr = err
		}
	})
	if combineErr != nil {
		return nil, fmt.Errorf("combine: %w", combineErr)
	}
	valid := true
	out["tcrypto.verify_aggregate_us"] = timeEach(timedCalls, func(i int) {
		valid = scheme.VerifyDigest(gk.PK, hms[i], sigs[i]) && valid
	})
	if !valid {
		return nil, fmt.Errorf("a combined signature failed verification")
	}

	keys, err := pki.NewKeyPair(rand.Reader, "perfbench")
	if err != nil {
		return nil, err
	}
	dir := pki.NewDirectory()
	dir.MustRegister(keys)
	edSigs := make([][]byte, timedCalls)
	for i := range edSigs {
		edSigs[i] = keys.Sign(msgs[i])
	}
	var edErr error
	out["tcrypto.ed25519_verify_us"] = timeEach(timedCalls, func(i int) {
		if err := dir.Verify(keys.ID, msgs[i], edSigs[i]); err != nil && edErr == nil {
			edErr = err
		}
	})
	if edErr != nil {
		return nil, fmt.Errorf("ed25519 verify: %w", edErr)
	}

	leaves := make([][]byte, merkleLeaves)
	for i := range leaves {
		leaves[i] = openflow.CanonicalUpdateBytes(openflow.MsgID{Origin: "perfbench", Seq: uint64(i)}, 0,
			[]openflow.FlowMod{{Switch: "tor", Op: openflow.FlowAdd}})
	}
	tree := merkle.NewTree(leaves)
	root := tree.Root()
	proofs := make([][][]byte, merkleLeaves)
	for i := range proofs {
		proofs[i] = tree.Proof(i)
	}
	out["tcrypto.merkle_proof_verify_us"] = timeEach(timedCalls, func(i int) {
		j := i % merkleLeaves
		valid = merkle.Verify(root[:], leaves[j], j, merkleLeaves, proofs[j]) && valid
	})
	if !valid {
		return nil, fmt.Errorf("a merkle inclusion proof failed verification")
	}
	return out, nil
}

// timePlanning times what a controller does to plan one flow: the
// routing app's shortest-path plan and the reverse-path schedule, on
// the run's own pairs. It returns the median in microseconds.
func timePlanning(g *topology.Graph, flows []*flowRec) float64 {
	app := &routing.ShortestPath{Graph: g, PairRules: true}
	n := min(len(flows), planSamples)
	if n == 0 {
		return 0
	}
	return timeEach(n, func(i int) {
		f := flows[i]
		ev := protocol.Event{
			ID:   openflow.MsgID{Origin: f.ingress, Seq: uint64(i + 1)},
			Kind: protocol.EventFlowRequest,
			Src:  f.src,
			Dst:  f.dst,
		}
		mods, err := app.PlanFlow(ev)
		if err != nil {
			return
		}
		updates := make([]scheduler.Update, len(mods))
		for j, mod := range mods {
			updates[j] = scheduler.Update{ID: openflow.MsgID{Origin: ev.ID.String(), Seq: uint64(j)}, Mod: mod}
		}
		scheduler.ReversePath{}.Schedule(updates)
	})
}
