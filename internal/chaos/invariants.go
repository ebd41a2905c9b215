package chaos

import (
	"crypto/sha256"
	"fmt"

	"cicero/internal/audit"
	"cicero/internal/controlplane"
	"cicero/internal/netprop"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/tcrypto/merkle"
)

// Violation is one invariant breach with the minimal related sub-trace.
type Violation struct {
	Seed      int64
	T         simnet.Time
	Invariant string
	Detail    string
	Trace     []TraceEvent
}

// String renders a violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("seed=%d t=%v %s: %s", v.Seed, v.T, v.Invariant, v.Detail)
}

// Invariant names.
const (
	// InvNoForgedRule: every update a switch applies as valid was
	// committed (ledgered) by at least one honest controller before any
	// share for it could have been sent — threshold-signature safety.
	InvNoForgedRule = "no-forged-rule"
	// InvBlackholeFreedom: following any installed output rule hop by hop
	// never reaches a switch with no matching rule or an unknown node.
	// Checked by the shared property engine (internal/netprop).
	InvBlackholeFreedom = netprop.BlackholeFreedom
	// InvLoopFreedom: no forwarding walk revisits a switch.
	InvLoopFreedom = netprop.LoopFreedom
	// InvPathConsistency: a forwarding walk for destination d that reaches
	// a host reaches exactly d.
	InvPathConsistency = netprop.PathConsistency
	// InvBFTAgreement: honest controllers of a domain deliver the same
	// events in the same order (total-order safety of the atomic
	// broadcast), observed through their hash-chained audit ledgers.
	InvBFTAgreement = "bft-agreement"
	// InvBatchProof: every batch-amortized update a switch applies as
	// valid must carry a Merkle inclusion proof that actually binds the
	// update's content to the claimed batch root. The checker re-runs the
	// proof independently of the switch (so the verification-bypass canary
	// and any forged-root or content-splice mutation surface here).
	InvBatchProof = "forged-batch-proof"
)

// checker evaluates the invariant plane. All its entry points run
// synchronously on the simulator loop.
type checker struct {
	r *run

	// legit holds SHA-256 of every canonical update byte-string ledgered
	// by an honest controller; ledgerPos tracks the incremental scan.
	legit     map[[32]byte]bool
	ledgerPos map[simnet.NodeID]int

	// seen dedups violations so a persistent bad state reports once.
	seen       map[string]bool
	violations []Violation

	// metaSeen tracks each switch store's adopted version vector across
	// sweeps (metadata rollback detection).
	metaSeen map[string]metaVersions
	// meta checks switch-store adoptions as they happen (nil unless the
	// profile enables the metadata plane).
	meta *metaWitness

	hosts map[string]bool
}

func newChecker(r *run) *checker {
	ck := &checker{
		r:         r,
		legit:     make(map[[32]byte]bool),
		ledgerPos: make(map[simnet.NodeID]int),
		seen:      make(map[string]bool),
		metaSeen:  make(map[string]metaVersions),
		hosts:     make(map[string]bool, len(r.hosts)),
	}
	for _, h := range r.hosts {
		ck.hosts[h] = true
	}
	if r.p.Metadata {
		ck.meta = newMetaWitness()
		for _, c := range ck.honestControllers() {
			if st := c.MetaStore(); st != nil {
				ck.meta.watchController(st)
			}
		}
		for _, id := range r.switches {
			if st := r.net.Switches[id].MetaStore(); st != nil {
				ck.meta.watchSwitch(id, st)
			}
		}
	}
	return ck
}

// honestControllers returns the domain's controllers excluding the
// designated Byzantine one (its ledger proves nothing and its lies must
// not vouch for forged updates).
func (ck *checker) honestControllers() []*controlplane.Controller {
	dom := ck.r.net.Domains[0]
	out := make([]*controlplane.Controller, 0, len(dom.Controllers))
	for _, c := range dom.Controllers {
		if simnet.NodeID(c.ID()) == ck.r.byz {
			continue
		}
		out = append(out, c)
	}
	return out
}

// report records a deduplicated violation with its related sub-trace.
func (ck *checker) report(invariant, dedupKey, detail, traceToken string) {
	key := invariant + "|" + dedupKey
	if ck.seen[key] {
		return
	}
	ck.seen[key] = true
	now := ck.r.net.Sim.Now()
	ck.r.tr.Add(now, "violation", invariant+": "+detail)
	ck.violations = append(ck.violations, Violation{
		Seed:      ck.r.seed,
		T:         now,
		Invariant: invariant,
		Detail:    detail,
		Trace:     ck.r.tr.Related(traceToken, 12),
	})
}

// onApply observes every switch apply decision (wired through the
// dataplane ApplyHook). Soundness of the forged-rule check: in threshold
// mode an update applies only after quorum-many distinct share indices,
// of which at most f belong to Byzantine controllers, and every honest
// controller appends the update to its ledger before sending its share —
// so by apply time the canonical bytes must already be in some honest
// ledger. A valid apply whose bytes no honest controller ever committed is
// a forged installation.
func (ck *checker) onApply(sw string, id openflow.MsgID, phase uint64, mods []openflow.FlowMod, valid bool) {
	now := ck.r.net.Sim.Now()
	ck.r.tr.Add(now, "apply", fmt.Sprintf("sw=%s update=%s phase=%d mods=%d valid=%v", sw, id, phase, len(mods), valid))
	if !valid {
		return // a rejected update is the protocol working
	}
	ck.refreshLegit()
	digest := sha256.Sum256(openflow.CanonicalUpdateBytes(id, phase, mods))
	if !ck.legit[digest] {
		ck.report(InvNoForgedRule, fmt.Sprintf("%s|%s", sw, id),
			fmt.Sprintf("switch %s applied update %s (phase %d) that no honest controller committed", sw, id, phase),
			id.String())
	}
}

// onBatchApply observes every batch-amortized apply decision (wired
// through the dataplane BatchApplyHook). It re-verifies the Merkle
// inclusion proof with its own hashing — never trusting the switch's
// verdict — so a switch that applied forged batch content (bypassed or
// broken verification) is caught even though the root signature itself
// only covers the root.
func (ck *checker) onBatchApply(sw string, m protocol.MsgBatchUpdate, valid bool) {
	now := ck.r.net.Sim.Now()
	ck.r.tr.Add(now, "batch-apply", fmt.Sprintf("sw=%s update=%s phase=%d leaf=%d/%d valid=%v",
		sw, m.UpdateID, m.Phase, m.LeafIndex, m.LeafCount, valid))
	if !valid {
		return // a rejected batch update is the protocol working
	}
	leaf := openflow.CanonicalUpdateBytes(m.UpdateID, m.Phase, m.Mods)
	if !merkle.Verify(m.BatchRoot, leaf, m.LeafIndex, m.LeafCount, m.Proof) {
		ck.report(InvBatchProof, fmt.Sprintf("%s|%s", sw, m.UpdateID),
			fmt.Sprintf("switch %s applied batched update %s (phase %d) whose inclusion proof does not verify against root %x",
				sw, m.UpdateID, m.Phase, m.BatchRoot),
			m.UpdateID.String())
	}
}

// refreshLegit ingests newly ledgered updates from honest controllers.
func (ck *checker) refreshLegit() {
	for _, c := range ck.honestControllers() {
		recs := c.AuditRecords()
		id := simnet.NodeID(c.ID())
		for _, rec := range recs[ck.ledgerPos[id]:] {
			if rec.Kind == audit.KindUpdate {
				ck.legit[sha256.Sum256(rec.Canonical)] = true
			}
		}
		ck.ledgerPos[id] = len(recs)
	}
}

// probeSrc is the concrete source used to walk wildcard-source rules.
const probeSrc = netprop.ProbeSrc

// reportFn records one violation; implementations deduplicate.
type reportFn func(invariant, dedupKey, detail, traceToken string)

// walkTables walks every installed output rule to its destination over the
// given flow tables. The walker itself lives in internal/netprop (shared
// with the synthesis engine); this shim keeps chaos callers and their
// campaign traces bit-identical.
func walkTables(tables map[string]*openflow.FlowTable, hosts map[string]bool, report reportFn) {
	netprop.WalkTables(tables, hosts, netprop.ReportFunc(report))
}

// walkTable follows the forwarding chain for (src, dst) starting at sw.
func walkTable(tables map[string]*openflow.FlowTable, hosts map[string]bool, sw, src, dst string, report reportFn) {
	netprop.WalkTable(tables, hosts, sw, src, dst, netprop.ReportFunc(report))
}

// checkDataPlane runs the walk invariants over the live simulator tables.
// Under reverse-path scheduling these hold at every instant, not just at
// quiescence: a rule is installed only after its downstream suffix acked.
func (ck *checker) checkDataPlane() {
	tables := make(map[string]*openflow.FlowTable, len(ck.r.switches))
	for _, swID := range ck.r.switches {
		tables[swID] = ck.r.net.Switches[swID].Table()
	}
	walkTables(tables, ck.hosts, ck.report)
}

// ledgerEntry is one KindEvent audit record reduced for comparison.
type ledgerEntry struct {
	subject string
	digest  [32]byte
}

// eventLedger extracts the comparison view of one controller's ledger:
// its KindEvent records, in append (= broadcast delivery) order.
func eventLedger(recs []audit.Record) []ledgerEntry {
	var out []ledgerEntry
	for _, rec := range recs {
		if rec.Kind != audit.KindEvent {
			continue
		}
		out = append(out, ledgerEntry{rec.Subject, sha256.Sum256(rec.Canonical)})
	}
	return out
}

// compareEventLedgers checks pairwise prefix agreement: the shorter ledger
// must be a prefix of the longer (same events, same order). Only KindEvent
// records participate: they are appended in atomic-broadcast delivery
// order, which the protocol totally orders; KindUpdate records interleave
// with ack arrival and legitimately differ across controllers.
func compareEventLedgers(ids []string, ledgers [][]ledgerEntry, report reportFn) {
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := ledgers[i], ledgers[j]
			m := len(a)
			if len(b) < m {
				m = len(b)
			}
			for k := 0; k < m; k++ {
				if a[k] != b[k] {
					report(InvBFTAgreement,
						fmt.Sprintf("%s|%s|%d", ids[i], ids[j], k),
						fmt.Sprintf("controllers %s and %s diverge at delivery %d: %s vs %s",
							ids[i], ids[j], k, a[k].subject, b[k].subject),
						a[k].subject)
					break
				}
			}
		}
	}
}

// checkAgreement compares honest controllers' event ledgers pairwise.
func (ck *checker) checkAgreement() {
	honest := ck.honestControllers()
	ids := make([]string, len(honest))
	ledgers := make([][]ledgerEntry, len(honest))
	for i, c := range honest {
		ids[i] = string(c.ID())
		ledgers[i] = eventLedger(c.AuditRecords())
	}
	compareEventLedgers(ids, ledgers, ck.report)
}
