package experiments

// Live runtime benchmarks: the fig-11-style update workloads executed on
// the wall-clock backends (internal/livenet) instead of the simulator,
// with real threshold crypto end to end. Every live run is cross-checked
// against a simnet reference run of the identical flow sequence:
//
//   - installed flow tables must match exactly (canonical sorted-rule
//     digest — rule insertion order varies across backends, content must
//     not);
//   - the single-flow (sequential, quiesced) leg must reproduce the
//     simulator's audit ledgers byte for byte, in order (ChainDigest);
//   - the multi-flow (concurrent) leg must reproduce the same audit
//     content in some order (ContentDigest — the atomic broadcast's total
//     order is backend-dependent under concurrency, its content is not).
//
// The canonical digests depend only on protocol decisions, never on
// signatures, so the reference leg runs with simulated crypto while the
// live legs pay for the real thing.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"cicero/internal/audit"
	"cicero/internal/core"
	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/metrics"
	"cicero/internal/protocol"
	"cicero/internal/topology"
	"cicero/internal/workload"
)

// LiveOptions tunes a live benchmark run.
type LiveOptions struct {
	// Backend selects "inproc" or "tcp".
	Backend string
	// SingleFlows is the number of sequential, individually-timed updates
	// (0 defaults by Quick).
	SingleFlows int
	// MultiFlows is the number of concurrently-launched updates (0
	// defaults by Quick).
	MultiFlows int
	// Quick shrinks the topology and flow counts for CI-speed runs.
	Quick bool
	// Seed drives pair selection and the simnet reference run.
	Seed int64
	// Timeout bounds each leg's completion wait (0: 60s).
	Timeout time.Duration
	// BatchSize > 1 enables batched ordering, so each threshold-signed
	// batch Merkle root covers more events, on both the live legs and the
	// simnet reference. <= 1 orders one event per slot.
	BatchSize int
	// BatchDelay bounds how long a partial batch waits before ordering.
	BatchDelay time.Duration
}

// Defaulted applies defaults.
func (o LiveOptions) Defaulted() LiveOptions {
	if o.Backend == "" {
		o.Backend = "inproc"
	}
	if o.SingleFlows == 0 {
		if o.Quick {
			o.SingleFlows = 6
		} else {
			o.SingleFlows = 25
		}
	}
	if o.MultiFlows == 0 {
		if o.Quick {
			o.MultiFlows = 8
		} else {
			o.MultiFlows = 40
		}
	}
	if o.Seed == 0 {
		o.Seed = 2020
	}
	if o.Timeout == 0 {
		o.Timeout = 60 * time.Second
	}
	return o
}

// LiveLatency summarizes wall-clock update latencies of one leg.
type LiveLatency struct {
	Updates int     `json:"updates"`
	MeanMs  float64 `json:"mean_ms"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
	P99Ms   float64 `json:"p99_ms"`
	MaxMs   float64 `json:"max_ms"`
	// WallMs is the leg's total wall time; UpdatesPerSec derives from it.
	WallMs        float64 `json:"wall_ms"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
}

// LiveWire summarizes one leg's fabric traffic.
type LiveWire struct {
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	Bytes     uint64 `json:"bytes"`
}

// LiveCrypto reports the cryptographic cost of one leg, normalized per
// applied update. Pairings are the expensive operation batching amortizes
// (full, prepared, and product-of-pairings evaluations all count as one);
// signature bytes meter the shares and aggregates actually produced.
type LiveCrypto struct {
	Updates           uint64  `json:"updates"`
	Pairings          uint64  `json:"pairings"`
	PairingsPerUpdate float64 `json:"pairings_per_update"`
	SignatureBytes    uint64  `json:"signature_bytes"`
	SigBytesPerUpdate float64 `json:"sig_bytes_per_update"`
}

// cryptoMark snapshots the process-wide crypto counters so a leg's delta
// can be attributed (legs run sequentially).
type cryptoMark struct {
	pairings uint64
	sigBytes uint64
}

func markCrypto() cryptoMark {
	s := metrics.Crypto.Snapshot()
	return cryptoMark{
		pairings: s["pairings"] + s["prepared_pairings"] + s["pairing_products"],
		sigBytes: s["signature_bytes"],
	}
}

// cryptoSince builds the per-update crypto report from a mark.
func cryptoSince(mark cryptoMark, updates uint64) LiveCrypto {
	cur := markCrypto()
	out := LiveCrypto{
		Updates:        updates,
		Pairings:       cur.pairings - mark.pairings,
		SignatureBytes: cur.sigBytes - mark.sigBytes,
	}
	if updates > 0 {
		out.PairingsPerUpdate = float64(out.Pairings) / float64(updates)
		out.SigBytesPerUpdate = float64(out.SignatureBytes) / float64(updates)
	}
	return out
}

// appliedUpdates sums switch apply counters (via the fabric's serial
// context on live backends).
func appliedUpdates(n *core.Network, live bool, timeout time.Duration) (uint64, error) {
	var total uint64
	for id, sw := range n.Switches {
		sw := sw
		read := func() { total += sw.UpdatesApplied }
		if live {
			if err := invokeWait(n.Fab, fabric.NodeID(id), read, timeout); err != nil {
				return 0, err
			}
		} else {
			read()
		}
	}
	return total, nil
}

// LiveCrossCheck records the backend-vs-simnet identity checks.
type LiveCrossCheck struct {
	TableDigest        string `json:"table_digest"`
	TableMatch         bool   `json:"table_match"`
	AuditChainMatch    bool   `json:"audit_chain_match"`
	AuditContentDigest string `json:"audit_content_digest"`
	AuditContentMatch  bool   `json:"audit_content_match"`
}

// LiveBackendReport is one backend's full result. The resilience maps
// carry the transport's retry/reconnect/breaker counters per leg under the
// canonical metrics.Counter* names (zero across the board on a healthy
// localhost run — nonzero values flag transport distress behind otherwise
// clean latencies).
type LiveBackendReport struct {
	Backend          string            `json:"backend"`
	SingleFlow       LiveLatency       `json:"single_flow"`
	MultiFlow        LiveLatency       `json:"multi_flow"`
	SingleWire       LiveWire          `json:"single_wire"`
	MultiWire        LiveWire          `json:"multi_wire"`
	SingleCheck      LiveCrossCheck    `json:"single_check"`
	MultiCheck       LiveCrossCheck    `json:"multi_check"`
	SingleCrypto     LiveCrypto        `json:"single_crypto"`
	MultiCrypto      LiveCrypto        `json:"multi_crypto"`
	SingleResilience map[string]uint64 `json:"single_resilience"`
	MultiResilience  map[string]uint64 `json:"multi_resilience"`
}

// resilienceCounters folds a live backend's ResilienceStats into the
// canonical counter names shared with the chaos campaigns.
func resilienceCounters(fab fabric.Fabric) map[string]uint64 {
	r, ok := fab.(interface {
		Resilience() livenet.ResilienceStats
	})
	if !ok {
		return nil
	}
	st := r.Resilience()
	return map[string]uint64{
		metrics.CounterRetry:       st.Retries,
		metrics.CounterReconnect:   st.Reconnects,
		metrics.CounterBreakerTrip: st.BreakerTrips,
		metrics.CounterCrash:       st.Crashes,
		metrics.CounterRestart:     st.Restarts,
	}
}

// LiveReport is the BENCH_live.json document.
type LiveReport struct {
	Quick       bool                `json:"quick"`
	Seed        int64               `json:"seed"`
	SingleFlows int                 `json:"single_flows"`
	MultiFlows  int                 `json:"multi_flows"`
	BatchSize   int                 `json:"batch_size"`
	Backends    []LiveBackendReport `json:"backends"`
}

// JSON renders the report.
func (r *LiveReport) JSON() []byte {
	b, _ := json.MarshalIndent(r, "", "  ")
	return append(b, '\n')
}

// Passed reports whether every cross-check on every backend held.
func (r *LiveReport) Passed() bool {
	for _, b := range r.Backends {
		for _, c := range []LiveCrossCheck{b.SingleCheck, b.MultiCheck} {
			if !c.TableMatch || !c.AuditContentMatch {
				return false
			}
		}
		if !b.SingleCheck.AuditChainMatch {
			return false
		}
	}
	return true
}

// liveTopology is the benchmark data plane: a single pod, shrunk under
// Quick.
func liveTopology(opt LiveOptions) (*topology.Graph, error) {
	cfg := topology.DefaultFabricConfig()
	cfg.HostsPerRack = 2
	if opt.Quick {
		cfg.RacksPerPod = 4
	} else {
		cfg.RacksPerPod = 8
	}
	return topology.BuildSinglePod(cfg)
}

// livePairs picks n deterministic host pairs whose paths cross at least
// one switch. With PairRules every pair triggers its own network update.
func livePairs(g *topology.Graph, n int) ([][2]string, error) {
	var hosts []string
	for _, node := range g.NodesOfKind(topology.KindHost) {
		hosts = append(hosts, node.ID)
	}
	sort.Strings(hosts)
	var pairs [][2]string
	for stride := 1; stride < len(hosts) && len(pairs) < n; stride++ {
		for i := 0; i < len(hosts) && len(pairs) < n; i++ {
			src, dst := hosts[i], hosts[(i+stride)%len(hosts)]
			path := g.ShortestPath(src, dst)
			if path == nil || len(g.SwitchesOnPath(path)) == 0 {
				continue
			}
			pairs = append(pairs, [2]string{src, dst})
		}
	}
	if len(pairs) < n {
		return nil, fmt.Errorf("live: topology yields only %d usable pairs, need %d", len(pairs), n)
	}
	return pairs, nil
}

// liveConfig is the deployment shared by the live legs and the simnet
// reference: Cicero with switch aggregation and per-pair rules. The live
// legs run real crypto on the given fabric; the reference runs simulated
// crypto on the simulator (the canonical digests are crypto-independent).
func liveConfig(g *topology.Graph, fab fabric.Fabric, opt LiveOptions) core.Config {
	return core.Config{
		Graph:      g,
		PairRules:  true,
		Cost:       calibrated,
		Seed:       opt.Seed,
		Fabric:     fab,
		CryptoReal: fab != nil,
		BatchSize:  opt.BatchSize,
		BatchDelay: opt.BatchDelay,
		// Live runs share wall-clock cores with the whole harness (and
		// the race detector in CI); a sub-second view-change timeout
		// would misread scheduling hiccups as a failed primary.
		ViewChangeTimeout: 5 * time.Second,
	}
}

// invokeWait runs fn in the node's serial context and waits for it.
func invokeWait(fab fabric.Fabric, id fabric.NodeID, fn func(), timeout time.Duration) error {
	done := make(chan struct{})
	fab.Invoke(id, func() {
		fn()
		close(done)
	})
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("live: node %s did not run invoke within %v", id, timeout)
	}
}

// digestHex renders a digest for the report.
func digestHex(d [32]byte) string { return hex.EncodeToString(d[:]) }

// digestOfLines sorts and hashes canonical lines (insertion order varies
// across backends; content must not).
func digestOfLines(lines []string) [32]byte {
	sort.Strings(lines)
	h := sha256.New()
	for _, line := range lines {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// networkTableDigest reads every switch's flow table (via the fabric's
// serial context on live backends) and returns the canonical digest.
func networkTableDigest(n *core.Network, live bool, timeout time.Duration) ([32]byte, error) {
	var lines []string
	ids := make([]string, 0, len(n.Switches))
	for id := range n.Switches {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		sw := n.Switches[id]
		read := func() {
			for _, r := range sw.Table().Rules() {
				lines = append(lines, fmt.Sprintf("%s|%d|%s|%s|%d",
					id, r.Priority, r.Match, r.Action, r.Cookie))
			}
		}
		if live {
			if err := invokeWait(n.Fab, fabric.NodeID(id), read, timeout); err != nil {
				return [32]byte{}, err
			}
		} else {
			read()
		}
	}
	return digestOfLines(lines), nil
}

// reference captures the simnet run's canonical results.
type reference struct {
	tableDigest [32]byte
	// chain and content are the per-controller audit digests, keyed by
	// controller identity (all controllers of a correct run agree, but
	// the comparison stays per-controller to catch divergence).
	chain   map[string][32]byte
	content map[string][32]byte
}

// controllerDigests reads every controller's ledger digests.
func controllerDigests(n *core.Network, live bool, timeout time.Duration) (chain, content map[string][32]byte, err error) {
	chain = make(map[string][32]byte)
	content = make(map[string][32]byte)
	for _, d := range n.Domains {
		for _, ctl := range d.Controllers {
			ctl := ctl
			id := string(ctl.ID())
			read := func() {
				records := ctl.AuditRecords()
				chain[id] = audit.ChainDigest(records)
				content[id] = audit.ContentDigest(records)
			}
			if live {
				if err := invokeWait(n.Fab, fabric.NodeID(id), read, timeout); err != nil {
					return nil, nil, err
				}
			} else {
				read()
			}
		}
	}
	return chain, content, nil
}

// runReference executes the flow sequence on the simulator and captures
// the canonical digests the live legs must reproduce.
func runReference(g *topology.Graph, pairs [][2]string, opt LiveOptions) (*reference, error) {
	n, err := core.Build(liveConfig(g, nil, opt))
	if err != nil {
		return nil, err
	}
	flows := make([]workload.Flow, len(pairs))
	for i, p := range pairs {
		flows[i] = workload.Flow{
			ID:  uint64(i + 1),
			Src: p[0], Dst: p[1],
			SizeKB: 64,
			// Wide spacing makes the reference sequential and quiesced
			// between flows, matching the live single-flow leg's order.
			Start: time.Duration(i) * 100 * time.Millisecond,
		}
	}
	if _, err := n.RunFlows(flows, core.RunOptions{}); err != nil {
		return nil, err
	}
	ref := &reference{}
	if ref.tableDigest, err = networkTableDigest(n, false, opt.Timeout); err != nil {
		return nil, err
	}
	if ref.chain, ref.content, err = controllerDigests(n, false, opt.Timeout); err != nil {
		return nil, err
	}
	return ref, nil
}

// newLiveFabric constructs the selected backend. The returned close
// function tears it down.
func newLiveFabric(backend string) (fabric.Fabric, func(), error) {
	codec := protocol.NewWireCodec(nil)
	switch backend {
	case "inproc":
		f := livenet.NewInProc(codec)
		return f, f.Close, nil
	case "tcp":
		f, err := livenet.NewTCP(codec)
		if err != nil {
			return nil, nil, err
		}
		return f, f.Close, nil
	default:
		return nil, nil, fmt.Errorf("live: unknown backend %q (have inproc, tcp)", backend)
	}
}

// driveFlow injects one table-miss update and returns a channel that
// fires when the ingress rule is installed (reverse-path scheduling makes
// ingress-readiness imply path-readiness).
func driveFlow(n *core.Network, pair [2]string) (<-chan struct{}, error) {
	path := n.Graph.ShortestPath(pair[0], pair[1])
	switches := n.Graph.SwitchesOnPath(path)
	if len(switches) == 0 {
		return nil, fmt.Errorf("live: pair %v crosses no switches", pair)
	}
	ingress := n.Switches[switches[0]]
	done := make(chan struct{})
	n.Fab.Invoke(fabric.NodeID(ingress.ID()), func() {
		if _, ok := ingress.Lookup(pair[0], pair[1]); ok {
			close(done)
			return
		}
		ingress.Subscribe(pair[0], pair[1], func(fabric.Time) { close(done) })
		ingress.PacketArrival(pair[0], pair[1])
	})
	return done, nil
}

// awaitQuiescence polls controller ledger lengths until they are stable
// across consecutive polls — trailing BFT deliveries and share traffic on
// the slower replicas drain before digests are read.
func awaitQuiescence(n *core.Network, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var prev []int
	stable := 0
	for time.Now().Before(deadline) {
		var cur []int
		for _, d := range n.Domains {
			for _, ctl := range d.Controllers {
				ctl := ctl
				var ln int
				if err := invokeWait(n.Fab, fabric.NodeID(ctl.ID()), func() {
					ln = len(ctl.AuditRecords())
				}, timeout); err != nil {
					return err
				}
				cur = append(cur, ln)
			}
		}
		same := prev != nil && len(cur) == len(prev)
		if same {
			for i := range cur {
				if cur[i] != prev[i] {
					same = false
					break
				}
			}
		}
		allEqual := true
		for _, ln := range cur {
			if ln != cur[0] {
				allEqual = false
				break
			}
		}
		if same && allEqual {
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
	return fmt.Errorf("live: controllers did not quiesce within %v", timeout)
}

// summarize converts raw latency samples into the report block.
func summarize(samples *metrics.Samples, wall time.Duration) LiveLatency {
	out := LiveLatency{
		Updates: samples.Len(),
		MeanMs:  samples.Mean(),
		P50Ms:   samples.Percentile(0.50),
		P95Ms:   samples.Percentile(0.95),
		P99Ms:   samples.Percentile(0.99),
		MaxMs:   samples.Max(),
		WallMs:  float64(wall) / float64(time.Millisecond),
	}
	if wall > 0 {
		out.UpdatesPerSec = float64(samples.Len()) / wall.Seconds()
	}
	return out
}

// wireOf snapshots fabric traffic for the report.
func wireOf(st fabric.Stats) LiveWire {
	return LiveWire{Sent: st.Sent, Delivered: st.Delivered, Dropped: st.Dropped, Bytes: st.Bytes}
}

// crossCheck compares a finished live leg against the reference.
// checkChain is true only for the sequential leg — concurrent legs only
// guarantee content.
func crossCheck(n *core.Network, ref *reference, checkChain bool, timeout time.Duration) (LiveCrossCheck, error) {
	var out LiveCrossCheck
	tbl, err := networkTableDigest(n, true, timeout)
	if err != nil {
		return out, err
	}
	out.TableDigest = digestHex(tbl)
	out.TableMatch = tbl == ref.tableDigest
	chain, content, err := controllerDigests(n, true, timeout)
	if err != nil {
		return out, err
	}
	out.AuditChainMatch = true
	out.AuditContentMatch = true
	for id, d := range content {
		out.AuditContentDigest = digestHex(d)
		if d != ref.content[id] {
			out.AuditContentMatch = false
		}
	}
	for id, d := range chain {
		if d != ref.chain[id] {
			out.AuditChainMatch = false
		}
	}
	if !checkChain {
		// Concurrent leg: chain order is backend-dependent by design;
		// report it but never fail on it.
		out.AuditChainMatch = true
	}
	return out, nil
}

// legResult bundles one live leg's measurements.
type legResult struct {
	lat        LiveLatency
	wire       LiveWire
	check      LiveCrossCheck
	crypto     LiveCrypto
	resilience map[string]uint64
}

// runLiveLeg builds a fresh deployment on the backend, drives the pairs
// (sequentially or concurrently), quiesces, and cross-checks.
func runLiveLeg(opt LiveOptions, g *topology.Graph, pairs [][2]string, ref *reference, concurrent bool) (legResult, error) {
	var res legResult
	fab, closeFab, err := newLiveFabric(opt.Backend)
	if err != nil {
		return res, err
	}
	defer closeFab()
	n, err := core.Build(liveConfig(g, fab, opt))
	if err != nil {
		return res, err
	}
	// Mark after Build: DKG and key provisioning must not count against
	// the steady-state per-update cost.
	mark := markCrypto()
	samples := &metrics.Samples{}
	wallStart := time.Now()
	if concurrent {
		// Inject every flow first (injection order is deterministic per
		// ingress switch, keeping event ids canonical), then wait for all.
		starts := make([]time.Time, len(pairs))
		dones := make([]<-chan struct{}, len(pairs))
		for i, p := range pairs {
			starts[i] = time.Now()
			if dones[i], err = driveFlow(n, p); err != nil {
				return res, err
			}
		}
		for i, done := range dones {
			select {
			case <-done:
				samples.Add(float64(time.Since(starts[i])) / float64(time.Millisecond))
			case <-time.After(opt.Timeout):
				return res, fmt.Errorf("live: %s flow %v timed out", opt.Backend, pairs[i])
			}
		}
	} else {
		for _, p := range pairs {
			start := time.Now()
			done, err := driveFlow(n, p)
			if err != nil {
				return res, err
			}
			select {
			case <-done:
				samples.Add(float64(time.Since(start)) / float64(time.Millisecond))
			case <-time.After(opt.Timeout):
				return res, fmt.Errorf("live: %s flow %v timed out", opt.Backend, p)
			}
			// The sequential leg quiesces between flows so the audit
			// chains record the simulator's canonical order.
			if err := awaitQuiescence(n, opt.Timeout); err != nil {
				return res, err
			}
		}
	}
	wall := time.Since(wallStart)
	if err := awaitQuiescence(n, opt.Timeout); err != nil {
		return res, err
	}
	if res.check, err = crossCheck(n, ref, !concurrent, opt.Timeout); err != nil {
		return res, err
	}
	updates, err := appliedUpdates(n, true, opt.Timeout)
	if err != nil {
		return res, err
	}
	res.crypto = cryptoSince(mark, updates)
	res.lat = summarize(samples, wall)
	res.wire = wireOf(fab.Stats())
	res.resilience = resilienceCounters(fab)
	return res, nil
}

// RunLive executes the full live benchmark for one backend: the simnet
// reference, the sequential single-flow leg, and the concurrent
// multi-flow leg.
func RunLive(opt LiveOptions) (*LiveBackendReport, error) {
	opt = opt.Defaulted()
	g, err := liveTopology(opt)
	if err != nil {
		return nil, err
	}
	nPairs := opt.SingleFlows
	if opt.MultiFlows > nPairs {
		nPairs = opt.MultiFlows
	}
	pairs, err := livePairs(g, nPairs)
	if err != nil {
		return nil, err
	}
	singlePairs := pairs[:opt.SingleFlows]
	multiPairs := pairs[:opt.MultiFlows]

	singleRef, err := runReference(g, singlePairs, opt)
	if err != nil {
		return nil, fmt.Errorf("live: simnet reference (single): %w", err)
	}
	multiRef, err := runReference(g, multiPairs, opt)
	if err != nil {
		return nil, fmt.Errorf("live: simnet reference (multi): %w", err)
	}

	report := &LiveBackendReport{Backend: opt.Backend}
	single, err := runLiveLeg(opt, g, singlePairs, singleRef, false)
	if err != nil {
		return nil, err
	}
	report.SingleFlow, report.SingleWire, report.SingleCheck = single.lat, single.wire, single.check
	report.SingleCrypto, report.SingleResilience = single.crypto, single.resilience
	multi, err := runLiveLeg(opt, g, multiPairs, multiRef, true)
	if err != nil {
		return nil, err
	}
	report.MultiFlow, report.MultiWire, report.MultiCheck = multi.lat, multi.wire, multi.check
	report.MultiCrypto, report.MultiResilience = multi.crypto, multi.resilience
	return report, nil
}

// RunLiveAll runs the benchmark on the requested backends ("all" expands
// to both) and assembles the BENCH_live.json report.
func RunLiveAll(opt LiveOptions, backends []string) (*LiveReport, error) {
	opt = opt.Defaulted()
	report := &LiveReport{
		Quick:       opt.Quick,
		Seed:        opt.Seed,
		SingleFlows: opt.SingleFlows,
		MultiFlows:  opt.MultiFlows,
		BatchSize:   opt.BatchSize,
	}
	for _, backend := range backends {
		o := opt
		o.Backend = backend
		b, err := RunLive(o)
		if err != nil {
			return nil, fmt.Errorf("live: backend %s: %w", backend, err)
		}
		report.Backends = append(report.Backends, *b)
	}
	return report, nil
}
