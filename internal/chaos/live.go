// Wall-clock chaos: the campaign profiles executed on the live backends
// (internal/livenet) instead of the simulator. The same fault families —
// message drop/delay/duplication/corruption, crash windows, partitions,
// and a Byzantine controller — inject through the fabric fault plane
// (fabric.FaultInjector), so one filter implementation adjudicates
// messages identically on simnet, in-process channels, and TCP sockets.
//
// Live runs are not deterministic (goroutine scheduling and real sockets
// interleave freely), so the invariant plane shifts from the simulator's
// online per-step checks to convergence checks: faults are injected for a
// bounded wall-clock window, every fault is then healed (crashed machines
// restart via the fabric, crashed processes rebuild via
// core.RestartController / core.RestartSwitch and run the protocol's
// recovery paths), a drain phase re-drives stalled flows until the network
// quiesces, and the final state must converge:
//
//   - the data-plane walk invariants (blackhole freedom, loop freedom,
//     path consistency) hold on a quiesced snapshot of every flow table;
//   - honest controllers' event ledgers agree (pairwise prefix);
//   - every update any switch applied as valid appears in an honest
//     controller's audit ledger (no-forged-rule — with the verification
//     canary planted, this is the check that must fire);
//   - restarted controllers' rebuilt ledgers are prefix-consistent with
//     their never-crashed peers' (recovery never installs forged or
//     reordered history), and byte-identical under benign fault profiles
//     (recovery really resynchronized);
//   - the final flow tables match a fault-free simnet reference run of the
//     same workload (crashed switches provably rebuilt their tables).
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"cicero/internal/audit"
	"cicero/internal/bft"
	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/metrics"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/merkle"
	"cicero/internal/tcrypto/pki"
	"cicero/internal/topology"
)

// Live-only invariant names (the convergence checks).
const (
	// InvResync: a restarted controller's rebuilt event ledger must be
	// prefix-consistent with its never-crashed honest peers' (recovery
	// must never install forged or reordered history).
	InvResync = "resync-divergence"
	// InvReference: the quiesced flow tables must match the fault-free
	// simnet reference of the same workload (checked when every flow
	// completed; meaningless under the canary, which plants forged rules).
	InvReference = "reference-divergence"
)

// liveFabric is what the runner needs beyond fabric.Fabric: the fault
// plane, the resilience counters, and teardown. Both livenet backends
// satisfy it.
type liveFabric interface {
	fabric.Fabric
	fabric.FaultInjector
	Crash(fabric.NodeID)
	Restart(fabric.NodeID)
	Partition(a, b fabric.NodeID)
	Heal(a, b fabric.NodeID)
	PartitionOneWay(from, to fabric.NodeID)
	HealOneWay(from, to fabric.NodeID)
	Resilience() livenet.ResilienceStats
	Close()
}

// LiveOptions tunes a wall-clock campaign run.
type LiveOptions struct {
	// Backend selects "inproc" or "tcp".
	Backend string
	// Seed drives workload and fault-schedule drawing (and the simnet
	// reference). Live runs are not bit-reproducible — the seed fixes what
	// is injected, not how it interleaves.
	Seed int64
	// FlowWindow spreads flow arrivals over [0, FlowWindow) wall time;
	// fault windows scale from it.
	FlowWindow time.Duration
	// DrainTimeout bounds the post-fault drain phase (re-driving stalled
	// flows, awaiting recoveries and quiescence).
	DrainTimeout time.Duration
	// OpTimeout bounds each serialized node access (Invoke round trip).
	OpTimeout time.Duration
	// ViewChangeTimeout for the live controllers. Wall-clock runs share
	// cores with the whole harness (and the race detector in CI), so this
	// must dwarf scheduling hiccups; it still has to be small enough that
	// a crashed primary is replaced within the drain budget.
	ViewChangeTimeout time.Duration
}

// Defaulted fills zero fields.
func (o LiveOptions) Defaulted() LiveOptions {
	if o.Backend == "" {
		o.Backend = "inproc"
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.FlowWindow == 0 {
		o.FlowWindow = 400 * time.Millisecond
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 45 * time.Second
	}
	if o.OpTimeout == 0 {
		o.OpTimeout = 10 * time.Second
	}
	if o.ViewChangeTimeout == 0 {
		o.ViewChangeTimeout = 2 * time.Second
	}
	return o
}

// LiveResult is one live campaign run's outcome.
type LiveResult struct {
	Profile string
	Backend string
	Seed    int64

	FlowsDone  int
	FlowsTotal int
	// Violations are the convergence-check failures (empty on a healthy
	// run; non-empty expected under the canary).
	Violations []Violation
	// Injected counts injected faults plus transport-resilience events
	// under the canonical metrics names.
	Injected map[string]uint64
	Net      fabric.Stats
	// Resilience snapshots the backend's retry/reconnect/breaker layer.
	Resilience livenet.ResilienceStats

	// CtlRestarts / CtlRecovered: controller processes rebuilt after a
	// crash window, and how many completed peer-state recovery.
	CtlRestarts  int
	CtlRecovered int
	// SwitchRestarts: switch processes rebuilt (empty table + resync).
	SwitchRestarts int
	// ResyncProven: every restarted controller's event ledger was
	// byte-identical to some never-crashed honest peer's at quiescence.
	// Expected true for benign fault profiles; under Byzantine message
	// loss a lawful delivery lag can leave it false (prefix consistency,
	// the safety property, is still enforced via InvResync).
	ResyncProven bool
	// TableMatch: final flow tables matched the fault-free simnet
	// reference (only meaningful when FlowsDone == FlowsTotal and no
	// canary is planted).
	TableMatch  bool
	TableDigest string

	UpdatesApplied  uint64
	UpdatesRejected uint64

	// Metadata-plane outcome (zero unless the profile enables it).
	MetaPublished     uint64
	MetaReshares      uint64
	MetaRootVersion   uint64
	MetaStaleShares   uint64
	MetaRejects       map[string]uint64
	MetaConfigRejects uint64

	Wall  time.Duration
	Err   string
	Trace *Trace
}

// liveFlowSpec is one drawn workload entry.
type liveFlowSpec struct {
	id       int
	src, dst string
	ingress  string // "" for local (switchless) flows
	at       time.Duration
}

// liveFlow tracks one flow's completion.
type liveFlow struct {
	liveFlowSpec
	once sync.Once
	done chan struct{}
}

func (f *liveFlow) complete() { f.once.Do(func() { close(f.done) }) }

func (f *liveFlow) isDone() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// liveRecorder is the concurrency-safe observation plane: the trace, the
// fault counters, and the apply log all take writes from mailbox and
// sender goroutines.
type liveRecorder struct {
	mu           sync.Mutex
	tr           *Trace
	counter      *metrics.CounterSet
	now          func() fabric.Time
	applies      []liveApply
	batchApplies []liveBatchApply
}

// liveApply is one switch apply decision, reduced for the forged-rule
// convergence check.
type liveApply struct {
	sw     string
	id     openflow.MsgID
	phase  uint64
	digest [32]byte
	valid  bool
}

func (rec *liveRecorder) trace(kind, detail string) {
	rec.mu.Lock()
	rec.tr.Add(rec.now(), kind, detail)
	rec.mu.Unlock()
}

func (rec *liveRecorder) count(name string, n uint64) {
	rec.mu.Lock()
	rec.counter.Add(name, n)
	rec.mu.Unlock()
}

// violation records a violation trace event and returns the related
// sub-trace under one critical section (injector goroutines may still be
// appending when the convergence sweep runs).
func (rec *liveRecorder) violation(invariant, detail, token string) []TraceEvent {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.tr.Add(rec.now(), "violation", invariant+": "+detail)
	return rec.tr.Related(token, 12)
}

// liveBatchApply is one batch-amortized apply decision. The Merkle
// inclusion proof is re-verified at record time (pure hashing, cheap, and
// the message's backing arrays may be reused once the mailbox moves on);
// the convergence sweep judges the stored verdicts.
type liveBatchApply struct {
	sw      string
	id      openflow.MsgID
	phase   uint64
	valid   bool
	proofOK bool
}

// onBatchApply observes batch-amortized applies (dataplane BatchApplyHook),
// re-running the inclusion proof independently of the switch's verdict.
func (rec *liveRecorder) onBatchApply(sw string, m protocol.MsgBatchUpdate, valid bool) {
	leaf := openflow.CanonicalUpdateBytes(m.UpdateID, m.Phase, m.Mods)
	proofOK := merkle.Verify(m.BatchRoot, leaf, m.LeafIndex, m.LeafCount, m.Proof)
	rec.mu.Lock()
	rec.tr.Add(rec.now(), "batch-apply", fmt.Sprintf("sw=%s update=%s phase=%d leaf=%d/%d valid=%v proof=%v",
		sw, m.UpdateID, m.Phase, m.LeafIndex, m.LeafCount, valid, proofOK))
	rec.batchApplies = append(rec.batchApplies, liveBatchApply{
		sw: sw, id: m.UpdateID, phase: m.Phase, valid: valid, proofOK: proofOK,
	})
	rec.mu.Unlock()
}

func (rec *liveRecorder) onApply(sw string, id openflow.MsgID, phase uint64, mods []openflow.FlowMod, valid bool) {
	digest := sha256.Sum256(openflow.CanonicalUpdateBytes(id, phase, mods))
	rec.mu.Lock()
	rec.tr.Add(rec.now(), "apply", fmt.Sprintf("sw=%s update=%s phase=%d mods=%d valid=%v", sw, id, phase, len(mods), valid))
	rec.applies = append(rec.applies, liveApply{sw: sw, id: id, phase: phase, digest: digest, valid: valid})
	rec.mu.Unlock()
}

// liveInjector adjudicates every admitted message on the live fabric. It
// runs on whatever goroutine called Send, so all its draws go through one
// locked RNG; the mutation logic is shared with the simnet injector.
type liveInjector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	link     LinkFaults
	byz      fabric.NodeID
	hosts    []string
	forgeSeq uint64
	rec      *liveRecorder
	debugBFT bool // CHAOS_DEBUG_BFT: trace every broadcast message
}

func (in *liveInjector) filter(from, to fabric.NodeID, msg fabric.Message, size int) fabric.FaultAction {
	in.mu.Lock()
	defer in.mu.Unlock()
	var act fabric.FaultAction

	if in.debugBFT {
		if m, ok := msg.(protocol.MsgBFT); ok {
			in.rec.trace("bft", fmt.Sprintf("%s->%s %s", from, to, bftDebugString(m)))
		}
	}
	if in.byz != "" && from == in.byz {
		if replaced, kind := in.byzMutate(msg); kind != "" {
			act.Replace = replaced
			msg = replaced
			in.rec.count(kind, 1)
			in.rec.trace(kind, fmt.Sprintf("->%s", to))
		}
	}
	lf := in.link
	if lf.DropProb > 0 && in.rng.Float64() < lf.DropProb {
		in.rec.count("drop", 1)
		in.rec.trace("inj-drop", fmt.Sprintf("%s->%s %T", from, to, msg))
		return fabric.FaultAction{Drop: true}
	}
	if lf.CorruptProb > 0 && in.rng.Float64() < lf.CorruptProb {
		if corrupted := corruptMessage(msg); corrupted != nil {
			act.Replace = corrupted
			in.rec.count("corrupt", 1)
			in.rec.trace("inj-corrupt", fmt.Sprintf("%s->%s %T", from, to, msg))
		}
	}
	if lf.DupProb > 0 && in.rng.Float64() < lf.DupProb {
		act.Duplicates = 1
		in.rec.count("dup", 1)
		in.rec.trace("inj-dup", fmt.Sprintf("%s->%s %T", from, to, msg))
	}
	if lf.DelayProb > 0 && lf.DelayMax > 0 && in.rng.Float64() < lf.DelayProb {
		act.Delay = time.Duration(in.rng.Int63n(int64(lf.DelayMax)))
		in.rec.count("delay", 1)
		in.rec.trace("inj-delay", fmt.Sprintf("%s->%s %T +%v", from, to, msg, act.Delay))
	}
	return act
}

// bftDebugString renders a broadcast message compactly for the
// CHAOS_DEBUG_BFT trace tap.
func bftDebugString(m protocol.MsgBFT) string {
	switch in := m.Inner.(type) {
	case bft.Request:
		return fmt.Sprintf("Request origin=%d len=%d", in.Origin, len(in.Payload))
	case bft.PrePrepare:
		return fmt.Sprintf("PrePrepare v=%d seq=%d d=%x", in.View, in.Seq, in.Digest[:4])
	case bft.Prepare:
		return fmt.Sprintf("Prepare v=%d seq=%d r=%d d=%x", in.View, in.Seq, in.Replica, in.Digest[:4])
	case bft.Commit:
		return fmt.Sprintf("Commit v=%d seq=%d r=%d d=%x", in.View, in.Seq, in.Replica, in.Digest[:4])
	case bft.ViewChange:
		return fmt.Sprintf("ViewChange nv=%d r=%d prep=%d ld=%d", in.NewView, in.Replica, len(in.Prepared), in.LastDelivered)
	case bft.NewView:
		return fmt.Sprintf("NewView v=%d pps=%d", in.View, len(in.PrePrepares))
	default:
		return fmt.Sprintf("%T", m.Inner)
	}
}

// byzMutate shares the simnet injector's mutation cores (caller holds
// in.mu).
func (in *liveInjector) byzMutate(msg fabric.Message) (fabric.Message, string) {
	switch m := msg.(type) {
	case protocol.MsgBatchUpdate:
		out, kind := byzMutateBatch(in.rng, m)
		if kind == "" {
			return nil, ""
		}
		return out, kind
	case protocol.MsgBFT:
		out, kind := byzMutateBFT(in.rng, in.hosts, &in.forgeSeq, m)
		if kind == "" {
			return nil, ""
		}
		return out, kind
	}
	return nil, ""
}

// liveEvent is one entry of the wall-clock fault/workload timeline.
type liveEvent struct {
	at time.Duration
	fn func()
}

// liveRun holds one live campaign's state. All orchestration (timeline,
// drain, restarts, snapshots) happens on the single driver goroutine;
// node state is only touched through the fabric's serial contexts.
type liveRun struct {
	p   Profile
	opt LiveOptions
	fab liveFabric
	net *core.Network
	rec *liveRecorder
	rng *rand.Rand

	hosts    []string
	hostSet  map[string]bool
	switches []string
	byz      fabric.NodeID

	flows  []*liveFlow
	events []liveEvent

	ctlRestarted map[int]bool
	swRestarted  map[string]bool

	seen       map[string]bool
	violations []Violation

	// Metadata campaign state (only set when the profile enables it).
	metaOldSet   []protocol.MetaEnvelope
	metaForge    *pki.KeyPair
	metaAttacker fabric.NodeID
	metaWitness  *metaWitness
}

// report records a deduplicated convergence violation.
func (lr *liveRun) report(invariant, dedupKey, detail, traceToken string) {
	key := invariant + "|" + dedupKey
	if lr.seen[key] {
		return
	}
	lr.seen[key] = true
	lr.violations = append(lr.violations, Violation{
		Seed:      lr.opt.Seed,
		T:         lr.fab.Now(),
		Invariant: invariant,
		Detail:    detail,
		Trace:     lr.rec.violation(invariant, detail, traceToken),
	})
}

// invokeWait runs fn in the node's serial context and waits for it.
func (lr *liveRun) invokeWait(id fabric.NodeID, fn func()) error {
	done := make(chan struct{})
	lr.fab.Invoke(id, func() {
		fn()
		close(done)
	})
	select {
	case <-done:
		return nil
	case <-time.After(lr.opt.OpTimeout):
		return fmt.Errorf("chaos live: node %s did not run invoke within %v", id, lr.opt.OpTimeout)
	}
}

// newLiveChaosFabric constructs the selected backend.
func newLiveChaosFabric(backend string) (liveFabric, error) {
	codec := protocol.NewWireCodec(nil)
	switch backend {
	case "inproc":
		return livenet.NewInProc(codec), nil
	case "tcp":
		return livenet.NewTCP(codec)
	default:
		return nil, fmt.Errorf("chaos live: unknown backend %q (have inproc, tcp)", backend)
	}
}

// liveCoreConfig is the deployment both the live run and its simnet
// reference share: Cicero with switch aggregation, like the simulated
// campaigns. Live runs pay for real crypto; the reference does not need to
// (the compared digests are crypto-independent).
func liveCoreConfig(p Profile, g *topology.Graph, fab fabric.Fabric, seed int64) core.Config {
	cfg := core.Config{
		Graph:                g,
		Protocol:             controlplane.ProtoCicero,
		Aggregation:          controlplane.AggSwitch,
		ControllersPerDomain: p.Controllers,
		Cost:                 protocol.Calibrated(),
		Seed:                 seed,
		Fabric:               fab,
		CryptoReal:           fab != nil,
		BatchSize:            p.BatchSize,
		BatchDelay:           p.BatchDelay,
	}
	if fab == nil {
		cfg.Jitter = 0.1
		cfg.ViewChangeTimeout = p.ViewChangeTimeout
	}
	// The metadata plane only runs on the live deployment (the fault-free
	// reference compares crypto-independent table digests). Refresh
	// forever normally; the bypass canary disables the refresh loop
	// entirely — the withholding freeze — so bypassed stores end up
	// claiming freshness on expired proofs.
	if p.Metadata && fab != nil {
		cfg.Metadata = true
		cfg.MetadataTTL = liveMetaDocumentTTL
		cfg.MetadataTimestampTTL = liveMetaTimestampTTL
		cfg.MetadataRefresh = liveMetaRefreshEvery
		cfg.MetadataRefreshHorizon = -1
		if p.CanaryMetaBypass {
			cfg.MetadataRefreshHorizon = 0
			// Short-lived proofs so the freeze is observable within the
			// run: the last mint expires before the post-drain sweep.
			cfg.MetadataTimestampTTL = liveMetaCanaryTTL
		}
	}
	return cfg
}

// tableDigestOf canonicalizes a set of flow tables: sorted rule lines,
// hashed. Insertion order varies across backends and fault schedules;
// content must not.
func tableDigestOf(tables map[string]*openflow.FlowTable) string {
	var lines []string
	for id, t := range tables {
		for _, r := range t.Rules() {
			lines = append(lines, fmt.Sprintf("%s|%d|%s|%s|%d", id, r.Priority, r.Match, r.Action, r.Cookie))
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, line := range lines {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// liveReference runs the drawn workload fault-free on the simulator and
// returns the canonical table digest the live run must converge to.
func liveReference(p Profile, g *topology.Graph, specs []liveFlowSpec, seed int64) (string, error) {
	n, err := core.Build(liveCoreConfig(p, g, nil, seed))
	if err != nil {
		return "", err
	}
	for i, spec := range specs {
		if spec.ingress == "" {
			continue
		}
		spec := spec
		ingress := n.Switches[spec.ingress]
		n.Sim.At(time.Duration(i)*time.Millisecond, func() {
			ingress.PacketArrival(spec.src, spec.dst)
		})
	}
	if _, err := n.Sim.RunUntil(5 * time.Second); err != nil {
		return "", err
	}
	tables := make(map[string]*openflow.FlowTable, len(n.Switches))
	for id, sw := range n.Switches {
		tables[id] = sw.Table()
	}
	return tableDigestOf(tables), nil
}

// RunLiveSeed executes one wall-clock campaign of the profile on a live
// backend: inject over the fault window, heal and restart everything,
// drain, then run the convergence checks.
func RunLiveSeed(p Profile, opt LiveOptions) (res LiveResult) {
	p = p.Defaulted()
	p.CryptoReal = true // live runs always pay for real crypto
	opt = opt.Defaulted()
	res = LiveResult{Profile: p.Name, Backend: opt.Backend, Seed: opt.Seed}
	wallStart := time.Now()
	defer func() { res.Wall = time.Since(wallStart) }()

	fabCfg := topology.DefaultFabricConfig()
	fabCfg.RacksPerPod = p.RacksPerPod
	fabCfg.HostsPerRack = p.HostsPerRack
	g, err := topology.BuildSinglePod(fabCfg)
	if err != nil {
		res.Err = err.Error()
		return res
	}

	lr := &liveRun{
		p:            p,
		opt:          opt,
		rng:          rand.New(rand.NewSource(opt.Seed ^ chaosSeedSalt)),
		ctlRestarted: make(map[int]bool),
		swRestarted:  make(map[string]bool),
		seen:         make(map[string]bool),
	}
	lr.hostSet = make(map[string]bool)
	for _, node := range g.NodesOfKind(topology.KindHost) {
		lr.hosts = append(lr.hosts, node.ID)
		lr.hostSet[node.ID] = true
	}

	// Draw the workload first (fixed RNG consumption order, like the
	// simulated campaigns), so the fault-free reference sees the exact
	// same flows.
	specs := lr.drawFlows(g)
	refDigest, err := liveReference(p, g, specs, opt.Seed)
	if err != nil {
		res.Err = fmt.Sprintf("simnet reference: %v", err)
		return res
	}

	fab, err := newLiveChaosFabric(opt.Backend)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	defer fab.Close()
	lr.fab = fab
	lr.rec = &liveRecorder{tr: NewTrace(0), counter: metrics.NewCounterSet(), now: fab.Now}

	cfg := liveCoreConfig(p, g, fab, opt.Seed)
	cfg.ViewChangeTimeout = opt.ViewChangeTimeout
	cfg.SwitchApplyHook = lr.rec.onApply
	cfg.SwitchBatchHook = lr.rec.onBatchApply
	net, err := core.Build(cfg)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	lr.net = net
	for id := range net.Switches {
		lr.switches = append(lr.switches, id)
	}
	sort.Strings(lr.switches)
	dom := net.Domains[0]
	if p.Byzantine {
		lr.byz = fabric.NodeID(dom.Members[len(dom.Members)-1])
	}

	if p.CanarySkipVerify {
		for _, id := range lr.switches {
			sw := net.Switches[id]
			if err := lr.invokeWait(fabric.NodeID(id), func() { sw.SetVerifyBypass(true) }); err != nil {
				res.Err = err.Error()
				return res
			}
		}
		lr.rec.trace("canary", "switch verification bypassed on all switches")
	}
	if p.CanaryMetaBypass {
		for _, id := range lr.switches {
			sw := net.Switches[id]
			if err := lr.invokeWait(fabric.NodeID(id), func() {
				if st := sw.MetaStore(); st != nil {
					st.SetVerifyBypass(true)
				}
			}); err != nil {
				res.Err = err.Error()
				return res
			}
		}
		lr.rec.trace("canary", "metadata verification bypassed on all switch stores")
	}
	if p.Metadata {
		lr.metaWitness = newMetaWitness()
		for _, ctl := range dom.Controllers {
			if err := lr.watchMetaController(ctl); err != nil {
				res.Err = err.Error()
				return res
			}
		}
		for _, id := range lr.switches {
			if err := lr.watchMetaSwitch(id, net.Switches[id]); err != nil {
				res.Err = err.Error()
				return res
			}
		}
	}

	// Install the live injector before any traffic, then lay out the
	// wall-clock timeline: flows, crash windows, partitions, Byzantine
	// injections — the same draw order as the simulated campaigns.
	inj := &liveInjector{
		rng:   rand.New(rand.NewSource(opt.Seed ^ chaosSeedSalt ^ 0x11fe)),
		link:  p.Link,
		byz:   lr.byz,
		hosts: lr.hosts,
		rec:   lr.rec,

		debugBFT: os.Getenv("CHAOS_DEBUG_BFT") != "",
	}
	fab.SetFilter(inj.filter)
	defer fab.SetFilter(nil)

	lr.scheduleLiveFlows(specs)
	lr.scheduleLiveCrashes()
	lr.scheduleLivePartitions()
	lr.scheduleLiveByzantine()
	lr.scheduleLiveMetadata()
	lr.runTimeline()

	// Every fault is now healed and every crashed node restarted: drain.
	drainDeadline := time.Now().Add(opt.DrainTimeout)
	lr.drainFlows(drainDeadline)
	lr.awaitRecoveries(drainDeadline, &res)
	if err := lr.awaitQuiescence(drainDeadline); err != nil {
		res.Err = err.Error()
	}

	lr.converge(refDigest, &res)
	lr.finishLiveMetadata(&res)

	res.FlowsTotal = len(lr.flows)
	for _, f := range lr.flows {
		if f.isDone() {
			res.FlowsDone++
		}
	}
	res.Violations = lr.violations
	res.CtlRestarts = len(lr.ctlRestarted)
	res.SwitchRestarts = len(lr.swRestarted)
	res.Net = fab.Stats()
	res.Resilience = fab.Resilience()
	lr.rec.mu.Lock()
	res.Trace = lr.rec.tr
	lr.rec.counter.Add(metrics.CounterRetry, res.Resilience.Retries)
	lr.rec.counter.Add(metrics.CounterReconnect, res.Resilience.Reconnects)
	lr.rec.counter.Add(metrics.CounterBreakerTrip, res.Resilience.BreakerTrips)
	res.Injected = lr.rec.counter.Map()
	lr.rec.mu.Unlock()
	return res
}

// drawFlows draws the workload: random host pairs arriving uniformly over
// the flow window.
func (lr *liveRun) drawFlows(g *topology.Graph) []liveFlowSpec {
	specs := make([]liveFlowSpec, 0, lr.p.Flows)
	for i := 0; i < lr.p.Flows; i++ {
		src := lr.hosts[lr.rng.Intn(len(lr.hosts))]
		dst := lr.hosts[lr.rng.Intn(len(lr.hosts))]
		for dst == src {
			dst = lr.hosts[lr.rng.Intn(len(lr.hosts))]
		}
		spec := liveFlowSpec{
			id:  i,
			src: src, dst: dst,
			at: time.Duration(lr.rng.Int63n(int64(lr.opt.FlowWindow))),
		}
		if path := g.ShortestPath(src, dst); path != nil {
			if switches := g.SwitchesOnPath(path); len(switches) > 0 {
				spec.ingress = switches[0]
			}
		}
		specs = append(specs, spec)
	}
	return specs
}

// scheduleLiveFlows turns the drawn specs into timeline events.
func (lr *liveRun) scheduleLiveFlows(specs []liveFlowSpec) {
	for _, spec := range specs {
		f := &liveFlow{liveFlowSpec: spec, done: make(chan struct{})}
		lr.flows = append(lr.flows, f)
		lr.events = append(lr.events, liveEvent{at: spec.at, fn: func() {
			lr.rec.trace("flow-start", fmt.Sprintf("flow=%d %s->%s ingress=%s", f.id, f.src, f.dst, f.ingress))
			lr.driveFlow(f)
		}})
	}
}

// driveFlow (re)injects one flow at its ingress: completion is observed
// via a rule-install subscription, exactly like the core driver. Safe to
// call repeatedly — table-miss events deduplicate per endpoint pair while
// outstanding, and completion is once-only.
func (lr *liveRun) driveFlow(f *liveFlow) {
	if f.ingress == "" {
		// Same-rack short circuit: no updates needed.
		f.complete()
		return
	}
	sw := lr.net.Switches[f.ingress]
	if sw == nil || lr.fab.Crashed(fabric.NodeID(f.ingress)) {
		// The ingress is down; the packet never reaches the data plane.
		// The drain phase re-drives after restart.
		lr.rec.trace("flow-lost", fmt.Sprintf("flow=%d ingress %s crashed", f.id, f.ingress))
		return
	}
	src, dst := f.src, f.dst
	lr.fab.Invoke(fabric.NodeID(f.ingress), func() {
		if _, ok := sw.Lookup(src, dst); ok {
			f.complete()
			return
		}
		sw.Subscribe(src, dst, func(fabric.Time) { f.complete() })
		sw.PacketArrival(src, dst)
	})
}

// scheduleLiveCrashes lays crash–restart windows on the timeline. A crash
// fails the machine on the fabric (mailbox purged, sockets severed); the
// restart revives the machine and rebuilds the process with empty volatile
// state, kicking off recovery (controllers: peer state transfer; switches:
// table resync).
func (lr *liveRun) scheduleLiveCrashes() {
	fw := lr.opt.FlowWindow
	dom := lr.net.Domains[0]
	if lr.p.ControllerCrash {
		at := fw/8 + time.Duration(lr.rng.Int63n(int64(fw/8)))
		for i := 0; i < 2; i++ {
			slot := lr.rng.Intn(len(dom.Members))
			for lr.byz != "" && fabric.NodeID(dom.Members[slot]) == lr.byz {
				slot = lr.rng.Intn(len(dom.Members))
			}
			dur := fw/4 + time.Duration(lr.rng.Int63n(int64(fw/4)))
			lr.crashCtlWindow(slot, at, dur)
			at += dur + fw/8 + time.Duration(lr.rng.Int63n(int64(fw/4)))
		}
	}
	if lr.p.SwitchCrash {
		picks := lr.rng.Perm(len(lr.switches))[:2]
		for _, pi := range picks {
			victim := lr.switches[pi]
			at := fw/8 + time.Duration(lr.rng.Int63n(int64(fw/2)))
			dur := fw/8 + time.Duration(lr.rng.Int63n(int64(fw/4)))
			lr.crashSwitchWindow(victim, at, dur)
		}
	}
}

// crashCtlWindow schedules one controller crash–restart window.
func (lr *liveRun) crashCtlWindow(slot int, at, dur time.Duration) {
	id := lr.net.Domains[0].Members[slot]
	lr.events = append(lr.events, liveEvent{at: at, fn: func() {
		lr.rec.count(metrics.CounterCrash, 1)
		lr.rec.trace("crash", fmt.Sprintf("controller %s for %v", id, dur))
		lr.fab.Crash(fabric.NodeID(id))
	}})
	lr.events = append(lr.events, liveEvent{at: at + dur, fn: func() {
		lr.fab.Restart(fabric.NodeID(id))
		ctl, err := lr.net.RestartController(0, slot)
		if err != nil {
			lr.rec.trace("restart-error", err.Error())
			return
		}
		lr.watchMetaController(ctl)
		lr.ctlRestarted[slot] = true
		lr.rec.count(metrics.CounterRestart, 1)
		lr.rec.trace("restart", fmt.Sprintf("controller %s", id))
	}})
}

// crashSwitchWindow schedules one switch crash–restart window.
func (lr *liveRun) crashSwitchWindow(id string, at, dur time.Duration) {
	lr.events = append(lr.events, liveEvent{at: at, fn: func() {
		lr.rec.count(metrics.CounterCrash, 1)
		lr.rec.trace("crash", fmt.Sprintf("switch %s for %v", id, dur))
		lr.fab.Crash(fabric.NodeID(id))
	}})
	lr.events = append(lr.events, liveEvent{at: at + dur, fn: func() {
		lr.fab.Restart(fabric.NodeID(id))
		sw, err := lr.net.RestartSwitch(id)
		if err != nil {
			lr.rec.trace("restart-error", err.Error())
			return
		}
		lr.watchMetaSwitch(id, sw)
		lr.swRestarted[id] = true
		lr.rec.count(metrics.CounterRestart, 1)
		lr.rec.trace("restart", fmt.Sprintf("switch %s", id))
	}})
}

// scheduleLivePartitions draws one controller-isolation window and one
// asymmetric switch->controller window, mirroring the simulated schedule.
func (lr *liveRun) scheduleLivePartitions() {
	if !lr.p.Partitions {
		return
	}
	fw := lr.opt.FlowWindow
	dom := lr.net.Domains[0]
	ctls := make([]fabric.NodeID, len(dom.Members))
	for i, m := range dom.Members {
		ctls[i] = fabric.NodeID(m)
	}

	// Isolate one controller (the Byzantine one when present, keeping
	// total faultiness within f).
	victim := lr.byz
	if victim == "" {
		victim = ctls[lr.rng.Intn(len(ctls))]
	}
	var others []fabric.NodeID
	for _, c := range ctls {
		if c != victim {
			others = append(others, c)
		}
	}
	for _, s := range lr.switches {
		others = append(others, fabric.NodeID(s))
	}
	at := fw/4 + time.Duration(lr.rng.Int63n(int64(fw/4)))
	dur := fw/8 + time.Duration(lr.rng.Int63n(int64(fw/4)))
	lr.events = append(lr.events, liveEvent{at: at, fn: func() {
		for _, o := range others {
			lr.fab.Partition(victim, o)
		}
		lr.rec.count("partition", 1)
		lr.rec.trace("partition", fmt.Sprintf("isolate %s for %v", victim, dur))
	}})
	lr.events = append(lr.events, liveEvent{at: at + dur, fn: func() {
		for _, o := range others {
			lr.fab.Heal(victim, o)
		}
		lr.rec.trace("heal", fmt.Sprintf("isolate %s", victim))
	}})

	// One-way: a switch loses its path TO one controller (its events and
	// acks vanish) while updates still flow in.
	sw := fabric.NodeID(lr.switches[lr.rng.Intn(len(lr.switches))])
	ctl := ctls[lr.rng.Intn(len(ctls))]
	at2 := fw/4 + time.Duration(lr.rng.Int63n(int64(fw/4)))
	dur2 := fw/8 + time.Duration(lr.rng.Int63n(int64(fw/4)))
	lr.events = append(lr.events, liveEvent{at: at2, fn: func() {
		lr.fab.PartitionOneWay(sw, ctl)
		lr.rec.count("partition-oneway", 1)
		lr.rec.trace("partition-1w", fmt.Sprintf("%s -> %s for %v", sw, ctl, dur2))
	}})
	lr.events = append(lr.events, liveEvent{at: at2 + dur2, fn: func() {
		lr.fab.HealOneWay(sw, ctl)
		lr.rec.trace("heal-1w", fmt.Sprintf("%s -> %s", sw, ctl))
	}})
}

// scheduleLiveByzantine draws timed forged-message injections from the
// Byzantine controller: fabricated share quorums, forged pre-aggregated
// updates, and bare PACKET_OUTs (the §2.2 attack). Real verification must
// reject every one; with the canary planted they apply and the forged-rule
// convergence check must fire.
func (lr *liveRun) scheduleLiveByzantine() {
	if lr.byz == "" {
		return
	}
	quorum := lr.net.Domains[0].Controllers[0].Quorum()
	const kinds = 4
	const injections = 6
	for i := 0; i < injections; i++ {
		at := 10*time.Millisecond + time.Duration(lr.rng.Int63n(int64(lr.opt.FlowWindow)))
		sw := lr.switches[lr.rng.Intn(len(lr.switches))]
		dst := lr.hosts[lr.rng.Intn(len(lr.hosts))]
		kind := lr.rng.Intn(kinds)
		seq := uint64(i + 1)
		sig := garbageBytes(lr.rng, 33)
		root := garbageBytes(lr.rng, merkle.HashSize)
		shareSigs := make([][]byte, quorum)
		for j := range shareSigs {
			shareSigs[j] = garbageBytes(lr.rng, 33)
		}
		lr.events = append(lr.events, liveEvent{at: at, fn: func() {
			id := openflow.MsgID{Origin: "byz/forge", Seq: seq}
			mods := []openflow.FlowMod{{
				Op:     openflow.FlowAdd,
				Switch: sw,
				Rule: openflow.Rule{
					Priority: 50,
					Match:    openflow.Match{Src: openflow.Wildcard, Dst: dst},
					Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "byz/blackhole"},
				},
			}}
			switch kind {
			case 0:
				// A per-update share quorum: threshold switches take only
				// batch-signed updates and must reject every copy.
				for j := 0; j < quorum; j++ {
					msg := protocol.MsgUpdate{
						UpdateID:   id,
						Mods:       mods,
						Phase:      1,
						From:       "byz",
						ShareIndex: uint32(j + 1),
						Share:      shareSigs[j],
					}
					lr.fab.Send(lr.byz, fabric.NodeID(sw), msg, 512)
				}
				lr.rec.count("byz-forge-shares", 1)
				lr.rec.trace("byz-forge-shares", fmt.Sprintf("->%s %s dst=%s", sw, id, dst))
			case 1:
				msg := protocol.MsgAggUpdate{UpdateID: id, Mods: mods, Phase: 1, Signature: sig}
				lr.fab.Send(lr.byz, fabric.NodeID(sw), msg, 512)
				lr.rec.count("byz-forge-agg", 1)
				lr.rec.trace("byz-forge-agg", fmt.Sprintf("->%s %s dst=%s", sw, id, dst))
			case 2:
				msg := openflow.PacketOut{Switch: sw, Src: probeSrc, Dst: dst}
				lr.fab.Send(lr.byz, fabric.NodeID(sw), msg, 256)
				lr.rec.count("byz-packet-out", 1)
				lr.rec.trace("byz-packet-out", fmt.Sprintf("->%s dst=%s", sw, dst))
			default:
				// A fabricated batch-share quorum under a forged root: the
				// inclusion proof must reject every copy; with the canary
				// planted they apply and the forged-batch-proof check must
				// fire.
				for j := 0; j < quorum; j++ {
					msg := protocol.MsgBatchUpdate{
						UpdateID:   id,
						Mods:       mods,
						Phase:      1,
						From:       "byz",
						BatchRoot:  root,
						LeafIndex:  0,
						LeafCount:  1,
						ShareIndex: uint32(j + 1),
						Share:      shareSigs[j],
					}
					lr.fab.Send(lr.byz, fabric.NodeID(sw), msg, 512)
				}
				lr.rec.count("byz-forge-batch", 1)
				lr.rec.trace("byz-forge-batch", fmt.Sprintf("->%s %s dst=%s", sw, id, dst))
			}
		}})
	}
}

// runTimeline executes the scheduled events in wall-clock order on the
// driver goroutine.
func (lr *liveRun) runTimeline() {
	sort.SliceStable(lr.events, func(i, j int) bool { return lr.events[i].at < lr.events[j].at })
	start := time.Now()
	for _, ev := range lr.events {
		if wait := ev.at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		ev.fn()
	}
}

// drainFlows re-drives stalled flows until all complete or the deadline
// passes. Re-driving is cheap and idempotent; every few rounds it also
// nudges the protocol layers — switches re-emit pending table-miss events
// (covering events that died with a crashed controller) and controllers
// retransmit released-but-unacknowledged updates (covering dispatches and
// acks that died in a fault window).
func (lr *liveRun) drainFlows(deadline time.Time) {
	round := 0
	for time.Now().Before(deadline) {
		stalled := 0
		for _, f := range lr.flows {
			if !f.isDone() {
				stalled++
				lr.driveFlow(f)
			}
		}
		if stalled == 0 {
			return
		}
		round++
		if round%30 == 0 && os.Getenv("CHAOS_DEBUG_LEDGERS") != "" {
			for _, ctl := range lr.net.Domains[0].Controllers {
				ctl := ctl
				lr.fab.Invoke(fabric.NodeID(ctl.ID()), func() {
					view, ld := ctl.BroadcastCoords()
					lr.rec.trace("ctl-state", fmt.Sprintf("%s view=%d ld=%d delivered=%d recovering=%v recovered=%v",
						ctl.ID(), view, ld, ctl.EventsDelivered, ctl.Recovering(), ctl.Recovered()))
				})
			}
		}
		if round%3 == 0 {
			for _, id := range lr.switches {
				sw := lr.net.Switches[id]
				lr.fab.Invoke(fabric.NodeID(id), sw.ResendPendingEvents)
			}
			for _, ctl := range lr.net.Domains[0].Controllers {
				ctl := ctl
				lr.fab.Invoke(fabric.NodeID(ctl.ID()), func() { ctl.RedispatchUnacked() })
			}
			lr.rec.trace("drain-nudge", fmt.Sprintf("round=%d stalled=%d", round, stalled))
		}
		time.Sleep(150 * time.Millisecond)
	}
}

// awaitRecoveries waits for every restarted controller to finish peer
// state transfer, counting completions.
func (lr *liveRun) awaitRecoveries(deadline time.Time, res *LiveResult) {
	for slot := range lr.ctlRestarted {
		ctl := lr.net.Domains[0].Controllers[slot]
		recovered := false
		// Poll at least once even if the drain phase exhausted the deadline:
		// a controller that already finished state transfer during the drain
		// must still be counted.
		for {
			if err := lr.invokeWait(fabric.NodeID(ctl.ID()), func() { recovered = ctl.Recovered() }); err != nil {
				break
			}
			if recovered {
				res.CtlRecovered++
				lr.rec.count(metrics.CounterRecovery, 1)
				lr.rec.trace("recovered", fmt.Sprintf("controller %s", ctl.ID()))
				break
			}
			if !time.Now().Before(deadline) {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if !recovered {
			lr.rec.trace("recovery-timeout", fmt.Sprintf("controller %s", ctl.ID()))
		}
	}
}

// honest returns the current controller instances minus the Byzantine one.
func (lr *liveRun) honest() []*controlplane.Controller {
	dom := lr.net.Domains[0]
	out := make([]*controlplane.Controller, 0, len(dom.Controllers))
	for _, c := range dom.Controllers {
		if fabric.NodeID(c.ID()) == lr.byz {
			continue
		}
		out = append(out, c)
	}
	return out
}

// awaitQuiescence polls honest controllers' ledger lengths until they are
// stable across consecutive polls — trailing deliveries, resync
// retransmissions, and recovery replays drain before snapshots are taken.
// Stability, not cross-controller equality: a restarted controller's
// ledger legitimately differs in total length from a never-crashed peer's
// (recovery replays delivered events, not the per-update bookkeeping lost
// with the crash), and under Byzantine message loss one honest replica
// can lawfully trail another — the convergence sweep's prefix checks
// judge the content.
func (lr *liveRun) awaitQuiescence(deadline time.Time) error {
	var prev []int
	stable := 0
	for time.Now().Before(deadline) {
		honest := lr.honest()
		cur := make([]int, 0, len(honest))
		for _, ctl := range honest {
			ctl := ctl
			var ln int
			if err := lr.invokeWait(fabric.NodeID(ctl.ID()), func() { ln = len(ctl.AuditRecords()) }); err != nil {
				return err
			}
			cur = append(cur, ln)
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
		if same {
			stable++
			if stable >= 3 {
				return nil
			}
		} else {
			stable = 0
		}
		prev = cur
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("chaos live: controllers did not quiesce before the drain deadline")
}

// converge takes quiesced snapshots of every switch table and controller
// ledger and runs the convergence checks.
func (lr *liveRun) converge(refDigest string, res *LiveResult) {
	// Snapshot switch state through each node's serial context.
	tables := make(map[string]*openflow.FlowTable, len(lr.switches))
	for _, id := range lr.switches {
		sw := lr.net.Switches[id]
		snap := openflow.NewFlowTable()
		if err := lr.invokeWait(fabric.NodeID(id), func() {
			for _, r := range sw.Table().Rules() {
				snap.Add(r)
			}
			res.UpdatesApplied += sw.UpdatesApplied
			res.UpdatesRejected += sw.UpdatesRejected
		}); err != nil {
			if res.Err == "" {
				res.Err = err.Error()
			}
			return
		}
		tables[id] = snap
	}
	// Snapshot controller ledgers.
	honest := lr.honest()
	ids := make([]string, len(honest))
	records := make([][]audit.Record, len(honest))
	for i, ctl := range honest {
		ctl := ctl
		i := i
		if err := lr.invokeWait(fabric.NodeID(ctl.ID()), func() {
			records[i] = append([]audit.Record(nil), ctl.AuditRecords()...)
		}); err != nil {
			if res.Err == "" {
				res.Err = err.Error()
			}
			return
		}
		ids[i] = string(ctl.ID())
	}

	if os.Getenv("CHAOS_DEBUG_LEDGERS") != "" {
		for i, recs := range records {
			for pos, rec := range recs {
				if rec.Kind != audit.KindEvent {
					continue
				}
				sum := sha256.Sum256(rec.Canonical)
				lr.rec.trace("ledger", fmt.Sprintf("%s[%d] %s %x", ids[i], pos, rec.Subject, sum[:6]))
			}
		}
	}

	// Data-plane walk invariants on the quiesced tables.
	walkTables(tables, lr.hostSet, lr.report)

	// Honest controllers must agree on the event order.
	ledgers := make([][]ledgerEntry, len(honest))
	for i := range records {
		ledgers[i] = eventLedger(records[i])
	}
	compareEventLedgers(ids, ledgers, lr.report)

	// No-forged-rule: every update applied as valid must be committed in
	// some honest ledger by quiescence.
	legit := make(map[[32]byte]bool)
	for _, recs := range records {
		for _, rec := range recs {
			if rec.Kind == audit.KindUpdate {
				legit[sha256.Sum256(rec.Canonical)] = true
			}
		}
	}
	lr.rec.mu.Lock()
	applies := append([]liveApply(nil), lr.rec.applies...)
	lr.rec.mu.Unlock()
	for _, ap := range applies {
		if !ap.valid || legit[ap.digest] {
			continue
		}
		lr.report(InvNoForgedRule, fmt.Sprintf("%s|%s", ap.sw, ap.id),
			fmt.Sprintf("switch %s applied update %s (phase %d) that no honest controller committed", ap.sw, ap.id, ap.phase),
			ap.id.String())
	}

	// Batch-proof: every batch-amortized update applied as valid must have
	// carried a verifying Merkle inclusion proof (re-checked at record
	// time, independent of the switch's — possibly bypassed — verdict).
	lr.rec.mu.Lock()
	batchApplies := append([]liveBatchApply(nil), lr.rec.batchApplies...)
	lr.rec.mu.Unlock()
	for _, ap := range batchApplies {
		if !ap.valid || ap.proofOK {
			continue
		}
		lr.report(InvBatchProof, fmt.Sprintf("%s|%s", ap.sw, ap.id),
			fmt.Sprintf("switch %s applied batched update %s (phase %d) whose inclusion proof does not verify", ap.sw, ap.id, ap.phase),
			ap.id.String())
	}

	// Resync: each restarted controller's rebuilt event ledger must be
	// prefix-consistent with every never-crashed honest peer's (content
	// divergence inside the common prefix means recovery installed forged
	// or reordered history — a safety violation). ResyncProven is the
	// stricter claim — byte-identical to some never-crashed peer — which
	// holds at quiescence for benign fault profiles; under Byzantine
	// message loss a lawful delivery lag can leave it false without any
	// invariant being violated.
	restartedIdx := make(map[int]bool)
	dom := lr.net.Domains[0]
	for slot := range lr.ctlRestarted {
		id := string(dom.Members[slot])
		for i, hid := range ids {
			if hid == id {
				restartedIdx[i] = true
			}
		}
	}
	res.ResyncProven = true
	for i := range restartedIdx {
		exact := false
		for j := range ids {
			if restartedIdx[j] {
				continue
			}
			if !prefixConsistent(ledgers[i], ledgers[j]) {
				lr.report(InvResync, ids[i]+"|"+ids[j],
					fmt.Sprintf("restarted controller %s's rebuilt ledger (%d events) diverges in content from never-crashed %s's (%d events)",
						ids[i], len(ledgers[i]), ids[j], len(ledgers[j])),
					ids[i])
			}
			if equalLedgers(ledgers[i], ledgers[j]) {
				exact = true
			}
		}
		if !exact {
			res.ResyncProven = false
		}
	}

	// Reference convergence: with every flow completed and no canary, the
	// final tables must match the fault-free simnet run bit for bit.
	res.TableDigest = tableDigestOf(tables)
	res.TableMatch = res.TableDigest == refDigest
	allDone := true
	for _, f := range lr.flows {
		if !f.isDone() {
			allDone = false
			break
		}
	}
	if allDone && !lr.p.CanarySkipVerify && !res.TableMatch {
		lr.report(InvReference, "tables",
			fmt.Sprintf("quiesced tables (digest %s) diverge from the fault-free simnet reference (%s)",
				res.TableDigest[:12], refDigest[:12]),
			"reference")
	}
}

// equalLedgers reports exact (length and content) ledger equality.
func equalLedgers(a, b []ledgerEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// prefixConsistent reports whether the shorter ledger is a prefix of the
// longer — the safety shape of two honest replicas at different delivery
// points.
func prefixConsistent(a, b []ledgerEntry) bool {
	m := len(a)
	if len(b) < m {
		m = len(b)
	}
	for i := 0; i < m; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
