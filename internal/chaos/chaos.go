// Package chaos is a deterministic fault-injection and invariant-checking
// engine layered on simnet. It turns the simulator into a property-based
// adversarial harness for the Cicero protocol: seeded campaigns inject
// message-level faults (drop, delay, duplicate, corrupt), timed crash and
// partition schedules, and Byzantine controller behaviors, while online
// checkers verify at every step that the data plane stays consistent
// (blackhole- and loop-free, path-consistent), that honest controllers
// agree on one total order of events, and that no rule was ever installed
// without a matching quorum decision on an honest controller
// (no-forged-rule, the paper's threshold-signature safety).
//
// Determinism: every run is a pure function of (Profile, Seed). Faults are
// drawn from a chaos RNG derived from the seed but distinct from the
// simulator's RNG; both advance in simulator event order, which is itself
// deterministic, so the same seed reproduces the same fault sequence,
// message interleaving, and trace hash bit-for-bit. Anything that varies
// across runs (real key material, signature bytes, map iteration) is kept
// out of the trace.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/core"
	"cicero/internal/metrics"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/topology"
)

// LinkFaults sets per-message fault probabilities applied by the network
// filter. Probabilities are independent per message.
type LinkFaults struct {
	// DropProb discards the message.
	DropProb float64
	// DupProb injects one extra copy (reordering arises naturally from
	// independent jitter on the copies).
	DupProb float64
	// DelayProb adds uniform extra latency in [0, DelayMax).
	DelayProb float64
	DelayMax  time.Duration
	// CorruptProb flips a payload byte of signed messages (events, acks,
	// shares, aggregates). Requires real crypto: with fake crypto a
	// corrupted-but-unauthenticated message would be accepted, which is a
	// property of the baseline, not a protocol violation.
	CorruptProb float64
}

// Profile describes one campaign configuration: topology size, workload,
// and which fault families are active.
type Profile struct {
	Name string

	// Topology/workload (single pod, single domain: cross-domain updates
	// have no global ordering, so data-plane walk invariants only hold
	// within one domain).
	RacksPerPod  int
	HostsPerRack int
	Controllers  int
	Flows        int
	// FlowWindow spreads flow arrivals uniformly over [0, FlowWindow).
	FlowWindow time.Duration

	// Fault families.
	Link LinkFaults
	// ControllerCrash schedules crash–recover windows on controllers.
	ControllerCrash bool
	// SwitchCrash schedules crash–recover windows on switches.
	SwitchCrash bool
	// Partitions schedules controller isolation and asymmetric
	// switch-to-controller partitions.
	Partitions bool
	// Byzantine designates the last controller of the domain as Byzantine:
	// its outgoing batch updates are mutated (forged root, spliced
	// content, garbage root share), its PrePrepares equivocate, and it
	// injects forged updates and bare PACKET_OUTs at switches.
	Byzantine bool

	// Metadata enables the signed-metadata plane and its campaign: policy
	// publications under load, a mid-run membership change whose reshare
	// rotates the root of trust, and a Byzantine metadata attacker sourced
	// from the retired controller (replayed old versions, withheld
	// timestamps, spliced snapshots, forged role keys, and a retired-share
	// signature against a live rotation). The stale-policy, store-rollback
	// and store-forgery invariants sweep every store. Needs >= 5
	// controllers for the mid-run removal to stay above Cicero's floor.
	Metadata bool

	// CryptoReal runs real BLS/Ed25519 end to end. Forced on by Byzantine
	// faults, payload corruption, and the canary (they are only meaningful
	// against real verification).
	CryptoReal bool
	// CanarySkipVerify disables signature verification at every switch —
	// the built-in mutation the no-forged-rule invariant must catch.
	CanarySkipVerify bool
	// CanaryMetaBypass disables metadata verification at every switch
	// store — the built-in mutation the metadata invariants must catch:
	// the attacker's rollbacks, freezes, splices and forged keys then
	// adopt, and the stale-policy / meta-store sweeps must fire.
	CanaryMetaBypass bool

	// Budgets.
	SimBudget     time.Duration
	EventBudget   uint64
	CheckInterval time.Duration

	ViewChangeTimeout time.Duration

	// BatchSize > 1 runs the batched hot path (batched BFT ordering plus
	// batch-amortized signing with Merkle inclusion proofs) under the same
	// fault families; the Byzantine controller additionally forges batch
	// roots and splices rule content under honest proofs, and the
	// batch-proof invariant re-verifies every batched apply.
	BatchSize  int
	BatchDelay time.Duration
}

// Defaulted fills zero fields and enforces cross-field requirements.
func (p Profile) Defaulted() Profile {
	if p.RacksPerPod == 0 {
		p.RacksPerPod = 4
	}
	if p.HostsPerRack == 0 {
		p.HostsPerRack = 2
	}
	if p.Controllers == 0 {
		p.Controllers = 4
	}
	if p.Flows == 0 {
		p.Flows = 15
	}
	if p.FlowWindow == 0 {
		p.FlowWindow = 120 * time.Millisecond
	}
	if p.SimBudget == 0 {
		p.SimBudget = 400 * time.Millisecond
	}
	if p.EventBudget == 0 {
		p.EventBudget = 2_000_000
	}
	if p.CheckInterval == 0 {
		p.CheckInterval = 20 * time.Millisecond
	}
	if p.ViewChangeTimeout == 0 {
		p.ViewChangeTimeout = 15 * time.Millisecond
	}
	if p.Byzantine || p.CanarySkipVerify || p.Link.CorruptProb > 0 {
		p.CryptoReal = true
	}
	if p.Metadata && p.Controllers < 5 {
		p.Controllers = 5
	}
	return p
}

// LinksProfile exercises message-level faults only.
func LinksProfile() Profile {
	return Profile{
		Name: "links",
		Link: LinkFaults{DropProb: 0.03, DupProb: 0.03, DelayProb: 0.08, DelayMax: 2 * time.Millisecond},
	}
}

// CrashProfile exercises crash–recover schedules.
func CrashProfile() Profile {
	return Profile{Name: "crash", ControllerCrash: true, SwitchCrash: true}
}

// PartitionsProfile exercises set and asymmetric partitions.
func PartitionsProfile() Profile {
	return Profile{Name: "partitions", Partitions: true}
}

// ByzantineProfile exercises a Byzantine controller against real crypto.
func ByzantineProfile() Profile {
	return Profile{Name: "byzantine", Byzantine: true, CryptoReal: true}
}

// MetadataProfile exercises the signed-metadata plane against its
// Byzantine attacker: rollback replays, withheld timestamps, spliced
// snapshots, forged role keys, and retired-share signatures across a
// mid-run membership change.
func MetadataProfile() Profile {
	return Profile{Name: "metadata", Metadata: true, Controllers: 5}
}

// MixedProfile combines every fault family (the acceptance campaign).
func MixedProfile() Profile {
	return Profile{
		Name: "mixed",
		Link: LinkFaults{
			DropProb: 0.02, DupProb: 0.02, DelayProb: 0.05,
			DelayMax: 2 * time.Millisecond, CorruptProb: 0.01,
		},
		ControllerCrash: true,
		SwitchCrash:     true,
		Partitions:      true,
		Byzantine:       true,
		CryptoReal:      true,
	}
}

// ProfileByName resolves a named profile.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "links":
		return LinksProfile(), nil
	case "crash":
		return CrashProfile(), nil
	case "partitions":
		return PartitionsProfile(), nil
	case "byzantine":
		return ByzantineProfile(), nil
	case "metadata":
		return MetadataProfile(), nil
	case "mixed":
		return MixedProfile(), nil
	}
	return Profile{}, fmt.Errorf("chaos: unknown profile %q (want links, crash, partitions, byzantine, metadata, mixed)", name)
}

// SeedResult reports one seed's outcome.
type SeedResult struct {
	Seed      int64
	Profile   string
	TraceHash string
	// Violations that survived dedup, in detection order.
	Violations []Violation
	FlowsDone  int
	FlowsTotal int
	// Injected counts faults by kind (drop, dup, delay, corrupt, crash,
	// partition, byz-*).
	Injected map[string]uint64
	Net      simnet.Stats
	// Aggregate switch counters.
	UpdatesApplied  uint64
	UpdatesRejected uint64
	// Metadata-plane counters (zero unless the profile enables it):
	// completed publications and refreshes at the leader, retired shares
	// the root collector rejected, classified store rejections summed over
	// every controller and switch store, and config pushes the switches'
	// metadata gate refused.
	MetaPublished     uint64
	MetaRefreshes     uint64
	MetaReshares      uint64
	MetaRootVersion   uint64
	MetaStaleShares   uint64
	MetaRejects       map[string]uint64
	MetaConfigRejects uint64
	SimEvents         uint64
	SimEnd            simnet.Time
	Err               string
	// Trace is the full retained event trace (campaigns drop it unless
	// asked to keep; replay keeps it).
	Trace *Trace
}

// chaosSeedSalt splits the chaos RNG stream from the simulator's.
const chaosSeedSalt = 0x5eedc4a05

// run holds one seed's live state.
type run struct {
	p       Profile
	seed    int64
	net     *core.Network
	rng     *rand.Rand
	tr      *Trace
	ck      *checker
	inj     *injector
	counter *metrics.CounterSet

	hosts    []string // sorted host ids
	switches []string // sorted switch ids
	ctls     []simnet.NodeID
	byz      simnet.NodeID

	flowsDone  int
	flowsTotal int
}

// RunSeed executes one seed of the profile and returns its result.
func RunSeed(p Profile, seed int64) SeedResult {
	p = p.Defaulted()
	res := SeedResult{Seed: seed, Profile: p.Name}

	fab := topology.DefaultFabricConfig()
	fab.RacksPerPod = p.RacksPerPod
	fab.HostsPerRack = p.HostsPerRack
	g, err := topology.BuildSinglePod(fab)
	if err != nil {
		res.Err = err.Error()
		return res
	}

	r := &run{
		p:       p,
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed ^ chaosSeedSalt)),
		tr:      NewTrace(0),
		counter: metrics.NewCounterSet(),
	}

	// The apply hooks are wired before the checker exists; late-bind them.
	hook := func(sw string, id openflow.MsgID, phase uint64, mods []openflow.FlowMod, valid bool) {
		if r.ck != nil {
			r.ck.onApply(sw, id, phase, mods, valid)
		}
	}
	batchHook := func(sw string, m protocol.MsgBatchUpdate, valid bool) {
		if r.ck != nil {
			r.ck.onBatchApply(sw, m, valid)
		}
	}
	n, err := core.Build(core.Config{
		Graph:                g,
		Protocol:             controlplane.ProtoCicero,
		Aggregation:          controlplane.AggSwitch,
		ControllersPerDomain: p.Controllers,
		Cost:                 protocol.Calibrated(),
		CryptoReal:           p.CryptoReal,
		Seed:                 seed,
		Jitter:               0.1,
		ViewChangeTimeout:    p.ViewChangeTimeout,
		SwitchApplyHook:      hook,
		SwitchBatchHook:      batchHook,
		BatchSize:            p.BatchSize,
		BatchDelay:           p.BatchDelay,
		Metadata:             p.Metadata,
		MetadataTTL:          metaDocumentTTL,
		MetadataTimestampTTL: metaTimestampTTL,
		MetadataRefresh:      metaRefreshEvery,
		// Refresh to the end of the budget so freshness is a live
		// obligation for the whole run. The bypass canary withholds
		// refreshes for the back half instead (the freeze attack): the
		// bypassed stores keep claiming freshness after their proofs
		// expire, which the stale-policy sweep must catch.
		MetadataRefreshHorizon: metaRefreshHorizon(p),
	})
	if err != nil {
		res.Err = err.Error()
		return res
	}
	r.net = n
	n.Sim.MaxEvents = p.EventBudget

	for _, node := range g.NodesOfKind(topology.KindHost) {
		r.hosts = append(r.hosts, node.ID)
	}
	for id := range n.Switches {
		r.switches = append(r.switches, id)
	}
	sort.Strings(r.switches)
	dom := n.Domains[0]
	for _, m := range dom.Members {
		r.ctls = append(r.ctls, simnet.NodeID(m))
	}
	if p.Byzantine {
		r.byz = simnet.NodeID(dom.Members[len(dom.Members)-1])
	}

	r.ck = newChecker(r)
	if p.CanarySkipVerify {
		for _, id := range r.switches {
			n.Switches[id].SetVerifyBypass(true)
		}
		r.tr.Add(0, "canary", "switch verification bypassed on all switches")
	}
	if p.CanaryMetaBypass {
		for _, id := range r.switches {
			if st := n.Switches[id].MetaStore(); st != nil {
				st.SetVerifyBypass(true)
			}
		}
		r.tr.Add(0, "canary", "metadata verification bypassed on all switch stores")
	}

	// Draw the deterministic timeline before the run starts: flows first,
	// then fault schedules, then Byzantine injections — a fixed consumption
	// order on the chaos RNG.
	r.scheduleFlows()
	r.scheduleCrashes()
	r.schedulePartitions()
	r.scheduleByzantine()
	r.scheduleMetadata()

	r.inj = newInjector(r)
	n.Net.SetFilter(r.inj.filter)

	// Online invariant sweep.
	var tick func()
	tick = func() {
		r.ck.checkDataPlane()
		r.ck.checkAgreement()
		r.ck.checkMetadata()
		if n.Sim.Now()+p.CheckInterval <= p.SimBudget {
			n.Sim.Schedule(p.CheckInterval, tick)
		}
	}
	n.Sim.Schedule(p.CheckInterval, tick)

	if _, err := n.Sim.RunUntil(p.SimBudget); err != nil {
		res.Err = err.Error()
	}
	// Final sweep over the quiesced (or budget-bounded) state.
	r.ck.checkDataPlane()
	r.ck.checkAgreement()
	r.ck.checkMetadata()

	res.TraceHash = r.tr.Hash()
	res.Violations = r.ck.violations
	res.FlowsDone = r.flowsDone
	res.FlowsTotal = r.flowsTotal
	res.Injected = r.counter.Map()
	res.Net = n.Net.Stats()
	for _, id := range r.switches {
		sw := n.Switches[id]
		res.UpdatesApplied += sw.UpdatesApplied
		res.UpdatesRejected += sw.UpdatesRejected
	}
	if p.Metadata {
		res.MetaRejects = make(map[string]uint64)
		sumRejects := func(m map[string]int) {
			for reason, count := range m {
				res.MetaRejects[reason] += uint64(count)
			}
		}
		for _, c := range n.Domains[0].Controllers {
			res.MetaPublished += c.MetaPublished
			res.MetaRefreshes += c.MetaRefreshes
			res.MetaReshares += c.Reshares
			res.MetaStaleShares += c.MetaStaleShares
			if st := c.MetaStore(); st != nil {
				sumRejects(st.Rejections())
				if rt := st.Root(); rt != nil && rt.Version > res.MetaRootVersion {
					res.MetaRootVersion = rt.Version
				}
			}
		}
		for _, id := range r.switches {
			sw := n.Switches[id]
			res.MetaConfigRejects += sw.MetaConfigRejects
			if st := sw.MetaStore(); st != nil {
				sumRejects(st.Rejections())
			}
		}
	}
	res.SimEvents = n.Sim.Processed()
	res.SimEnd = n.Sim.Now()
	res.Trace = r.tr
	return res
}

// scheduleFlows draws the workload: random host pairs arriving uniformly
// over the flow window, driven through the ingress switch exactly like the
// core driver, with completion observed via rule-install subscriptions.
func (r *run) scheduleFlows() {
	n := r.net
	for i := 0; i < r.p.Flows; i++ {
		src := r.hosts[r.rng.Intn(len(r.hosts))]
		dst := r.hosts[r.rng.Intn(len(r.hosts))]
		for dst == src {
			dst = r.hosts[r.rng.Intn(len(r.hosts))]
		}
		at := time.Duration(r.rng.Int63n(int64(r.p.FlowWindow)))
		id := i
		r.flowsTotal++
		n.Sim.At(at, func() { r.startFlow(id, src, dst) })
	}
}

// startFlow fires one flow at its arrival time.
func (r *run) startFlow(id int, src, dst string) {
	n := r.net
	path := n.Graph.ShortestPath(src, dst)
	if path == nil {
		r.tr.Add(n.Sim.Now(), "flow-unroutable", fmt.Sprintf("flow=%d %s->%s", id, src, dst))
		return
	}
	switches := n.Graph.SwitchesOnPath(path)
	if len(switches) == 0 {
		// Same-host/rack short circuit: no updates needed.
		r.flowsDone++
		r.tr.Add(n.Sim.Now(), "flow-done", fmt.Sprintf("flow=%d %s->%s local", id, src, dst))
		return
	}
	ingress := n.Switches[switches[0]]
	r.tr.Add(n.Sim.Now(), "flow-start", fmt.Sprintf("flow=%d %s->%s ingress=%s", id, src, dst, switches[0]))
	if n.Net.Crashed(simnet.NodeID(switches[0])) {
		// The ingress is down; the packet never reaches the data plane.
		r.tr.Add(n.Sim.Now(), "flow-lost", fmt.Sprintf("flow=%d ingress %s crashed", id, switches[0]))
		return
	}
	ingress.Subscribe(src, dst, func(at simnet.Time) {
		r.flowsDone++
		r.tr.Add(at, "flow-done", fmt.Sprintf("flow=%d %s->%s", id, src, dst))
	})
	ingress.PacketArrival(src, dst)
}

// scheduleCrashes draws non-overlapping controller crash windows and
// switch crash windows (distinct switches may overlap each other).
// Crashes are benign faults: safety must hold for any number of them; only
// liveness needs a quorum, and the run reports incomplete flows rather
// than asserting completion.
func (r *run) scheduleCrashes() {
	if r.p.ControllerCrash {
		// Two sequential windows, each crashing one non-Byzantine
		// controller (the Byzantine node's faults are its own family).
		at := 20*time.Millisecond + time.Duration(r.rng.Int63n(int64(20*time.Millisecond)))
		for i := 0; i < 2; i++ {
			victim := r.ctls[r.rng.Intn(len(r.ctls))]
			for victim == r.byz {
				victim = r.ctls[r.rng.Intn(len(r.ctls))]
			}
			dur := 10*time.Millisecond + time.Duration(r.rng.Int63n(int64(20*time.Millisecond)))
			r.crashWindow(victim, at, dur, "controller")
			at += dur + 10*time.Millisecond + time.Duration(r.rng.Int63n(int64(30*time.Millisecond)))
		}
	}
	if r.p.SwitchCrash {
		picks := r.rng.Perm(len(r.switches))[:2]
		for _, pi := range picks {
			victim := simnet.NodeID(r.switches[pi])
			at := 15*time.Millisecond + time.Duration(r.rng.Int63n(int64(60*time.Millisecond)))
			dur := 5*time.Millisecond + time.Duration(r.rng.Int63n(int64(15*time.Millisecond)))
			r.crashWindow(victim, at, dur, "switch")
		}
	}
}

// crashWindow schedules a crash at `at` and recovery at `at+dur`.
func (r *run) crashWindow(victim simnet.NodeID, at, dur time.Duration, kind string) {
	n := r.net
	n.Sim.At(at, func() {
		n.Net.Crash(victim)
		r.counter.Add("crash", 1)
		r.tr.Add(n.Sim.Now(), "crash", fmt.Sprintf("%s %s for %v", kind, victim, dur))
	})
	n.Sim.At(at+dur, func() {
		n.Net.Recover(victim)
		r.tr.Add(n.Sim.Now(), "recover", fmt.Sprintf("%s %s", kind, victim))
	})
}

// schedulePartitions draws one controller-isolation window (set partition)
// and one asymmetric switch->controller window (acks lost one way).
func (r *run) schedulePartitions() {
	if !r.p.Partitions {
		return
	}
	n := r.net

	// Isolate one controller from everyone else for a while. If a
	// Byzantine controller exists, isolate that one — total faultiness
	// stays within f.
	victim := r.byz
	if victim == "" {
		victim = r.ctls[r.rng.Intn(len(r.ctls))]
	}
	var others []simnet.NodeID
	for _, c := range r.ctls {
		if c != victim {
			others = append(others, c)
		}
	}
	for _, s := range r.switches {
		others = append(others, simnet.NodeID(s))
	}
	at := 25*time.Millisecond + time.Duration(r.rng.Int63n(int64(40*time.Millisecond)))
	dur := 15*time.Millisecond + time.Duration(r.rng.Int63n(int64(30*time.Millisecond)))
	n.Sim.At(at, func() {
		n.Net.PartitionSet([]simnet.NodeID{victim}, others)
		r.counter.Add("partition", 1)
		r.tr.Add(n.Sim.Now(), "partition", fmt.Sprintf("isolate %s for %v", victim, dur))
	})
	n.Sim.At(at+dur, func() {
		n.Net.HealSet([]simnet.NodeID{victim}, others)
		r.tr.Add(n.Sim.Now(), "heal", fmt.Sprintf("isolate %s", victim))
	})

	// One-way: a switch loses its path TO one controller (its events and
	// acks vanish) while updates still flow in.
	sw := simnet.NodeID(r.switches[r.rng.Intn(len(r.switches))])
	ctl := r.ctls[r.rng.Intn(len(r.ctls))]
	at2 := 25*time.Millisecond + time.Duration(r.rng.Int63n(int64(40*time.Millisecond)))
	dur2 := 15*time.Millisecond + time.Duration(r.rng.Int63n(int64(30*time.Millisecond)))
	n.Sim.At(at2, func() {
		n.Net.PartitionOneWay(sw, ctl)
		r.counter.Add("partition-oneway", 1)
		r.tr.Add(n.Sim.Now(), "partition-1w", fmt.Sprintf("%s -> %s for %v", sw, ctl, dur2))
	})
	n.Sim.At(at2+dur2, func() {
		n.Net.HealOneWay(sw, ctl)
		r.tr.Add(n.Sim.Now(), "heal-1w", fmt.Sprintf("%s -> %s", sw, ctl))
	})
}
