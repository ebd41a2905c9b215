package chaos

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"cicero/internal/controlplane"
	"cicero/internal/dataplane"
	"cicero/internal/fabric"
	"cicero/internal/metarepo"
	"cicero/internal/protocol"
	"cicero/internal/tcrypto/pki"
)

// Wall-clock metadata regime for live campaigns: freshness proofs live
// two seconds and the leader re-mints well inside that, so an honest
// store never expires while a frozen one does within the drain budget.
const (
	liveMetaTimestampTTL = 2 * time.Second
	liveMetaRefreshEvery = 700 * time.Millisecond
	liveMetaDocumentTTL  = time.Hour
	liveMetaAttackSize   = 768
	// Canary runs withhold refreshes and shorten the proof lifetime so
	// the freeze becomes observable before the post-drain sweep: the
	// probe sleep (500ms) strictly exceeds TTL + grace, so a frozen
	// store is always past expiry by the time the sweep reads it.
	liveMetaCanaryTTL   = 300 * time.Millisecond
	liveMetaStaleGrace  = 100 * time.Millisecond
	liveMetaProbeSettle = 500 * time.Millisecond
)

// scheduleLiveMetadata lays the metadata campaign onto the wall-clock
// timeline: an initial policy publication, a captured pre-change set,
// replay/splice/forged-key attack waves sourced from the member that is
// about to be retired, and a mid-run membership removal whose reshare
// rotates the root of trust.
func (lr *liveRun) scheduleLiveMetadata() {
	if !lr.p.Metadata {
		return
	}
	dom := lr.net.Domains[0]
	leader := dom.Controllers[0]
	attacker := fabric.NodeID(dom.Members[len(dom.Members)-1])
	fw := lr.opt.FlowWindow

	forgeKeys, err := pki.NewKeyPair(rand.Reader, "meta/forger")
	if err != nil {
		return
	}
	lr.metaForge = forgeKeys
	lr.metaAttacker = attacker

	publish := func(tag string) {
		lr.invokeWait(fabric.NodeID(leader.ID()), func() {
			members := make([]string, 0, len(leader.Members()))
			for _, m := range leader.Members() {
				members = append(members, string(m))
			}
			leader.PublishPolicy(metarepo.Policy{
				Phase:   leader.Phase(),
				Members: members,
				Quorum:  leader.Quorum(),
				Flows:   []metarepo.FlowPolicy{{Src: lr.hosts[0], Dst: lr.hosts[len(lr.hosts)-1], Allow: true}},
			})
		})
		lr.rec.trace("meta-publish", tag)
	}

	lr.events = append(lr.events, liveEvent{at: 2 * time.Millisecond, fn: func() {
		publish("initial policy")
	}})

	// Capture the pre-change set once the publication has propagated.
	lr.events = append(lr.events, liveEvent{at: fw / 3, fn: func() {
		lr.invokeWait(fabric.NodeID(leader.ID()), func() {
			if st := leader.MetaStore(); st != nil {
				lr.metaOldSet = st.CurrentSet()
			}
		})
	}})

	lr.events = append(lr.events, liveEvent{at: fw / 2, fn: func() {
		lr.metaAttackWave("first wave", false)
	}})

	// Membership removal mid-campaign: the reshare installs fresh shares,
	// the leader rotates the root, and the removed member's role key
	// retires everywhere — after which its replayed envelopes classify as
	// retired-key rejections.
	if len(dom.Members) > 4 {
		removed := dom.Members[len(dom.Members)-1]
		lr.events = append(lr.events, liveEvent{at: 2 * fw / 3, fn: func() {
			lr.invokeWait(fabric.NodeID(leader.ID()), func() {
				if err := leader.RequestRemoveController(removed); err == nil {
					lr.rec.count("meta-remove", 1)
					lr.rec.trace("meta-remove", string(removed))
				}
			})
		}})
	}

	lr.events = append(lr.events, liveEvent{at: fw, fn: func() {
		lr.metaAttackWave("second wave", false)
	}})
}

// metaAttackWave sends one round of metadata attacks to every switch:
// the replayed pre-change set, the stale freshness proof, a spliced
// snapshot, and a far-future targets document signed by a key no root
// ever delegated. replayOnly restricts the wave to the replayed set —
// the post-drain rollback probe, which must not also hand a bypassed
// store a fresh high-version document that would mask the regression.
func (lr *liveRun) metaAttackWave(tag string, replayOnly bool) {
	if len(lr.metaOldSet) == 0 || lr.metaForge == nil {
		return
	}
	nowNS := int64(lr.fab.Now())
	for _, swID := range lr.switches {
		sw := fabric.NodeID(swID)
		lr.fab.Send(lr.metaAttacker, sw, protocol.MsgMetaSet{Envs: lr.metaOldSet}, liveMetaAttackSize)
		if replayOnly {
			continue
		}
		for _, env := range lr.metaOldSet {
			if env.Role == protocol.MetaRoleTimestamp {
				lr.fab.Send(lr.metaAttacker, sw, protocol.MsgMeta{Env: env}, liveMetaAttackSize)
			}
		}
		var splice []protocol.MetaEnvelope
		for _, env := range lr.metaOldSet {
			if env.Role == protocol.MetaRoleSnapshot {
				splice = append(splice, env)
			}
		}
		swRef := lr.net.Switches[swID]
		lr.invokeWait(sw, func() {
			if st := swRef.MetaStore(); st != nil {
				for _, env := range st.CurrentSet() {
					if env.Role == protocol.MetaRoleTargets {
						splice = append(splice, env)
					}
				}
			}
		})
		if len(splice) > 1 {
			lr.fab.Send(lr.metaAttacker, sw, protocol.MsgMetaSet{Envs: splice}, liveMetaAttackSize)
		}
		doc := metarepo.Targets{
			Version:   1000,
			IssuedNS:  nowNS,
			ExpiresNS: nowNS + int64(liveMetaDocumentTTL),
		}
		signed := metarepo.Encode(doc)
		env := protocol.MetaEnvelope{
			Role:   protocol.MetaRoleTargets,
			Signed: signed,
			Sigs:   []protocol.MetaSig{metarepo.SignRole(lr.metaForge, protocol.MetaRoleTargets, signed)},
		}
		lr.fab.Send(lr.metaAttacker, sw, protocol.MsgMeta{Env: env}, liveMetaAttackSize)
	}
	lr.rec.count("meta-attack-wave", 1)
	lr.rec.trace("meta-attack", tag)
}

// watchMetaController attaches the adoption witness to a controller's
// store (no-op unless the metadata plane is on).
func (lr *liveRun) watchMetaController(ctl *controlplane.Controller) error {
	if lr.metaWitness == nil {
		return nil
	}
	return lr.invokeWait(fabric.NodeID(ctl.ID()), func() {
		if st := ctl.MetaStore(); st != nil {
			lr.metaWitness.watchController(st)
		}
	})
}

// watchMetaSwitch attaches the adoption witness to a switch's store
// (no-op unless the metadata plane is on).
func (lr *liveRun) watchMetaSwitch(id string, sw *dataplane.Switch) error {
	if lr.metaWitness == nil {
		return nil
	}
	return lr.invokeWait(fabric.NodeID(id), func() {
		if st := sw.MetaStore(); st != nil {
			lr.metaWitness.watchSwitch(id, st)
		}
	})
}

// liveMetaSnapshot is one store's version vector at a probe point.
type liveMetaSnapshot struct {
	root, targets, snapshot, timestamp uint64
}

// finishLiveMetadata runs the metadata convergence checks after the
// drain: a first sweep records every switch store's adopted versions, a
// final attack wave replays the pre-change set against the settled
// system, and the second sweep must find no store rolled back, nothing
// adopted that honest controllers never signed, and no store claiming
// freshness on an expired proof. It also folds the metadata counters
// into the result.
func (lr *liveRun) finishLiveMetadata(res *LiveResult) {
	if !lr.p.Metadata {
		return
	}
	dom := lr.net.Domains[0]

	// Reference digests and counters from the controllers.
	ref := make(map[string][32]byte)
	var maxTargets uint64
	res.MetaRejects = make(map[string]uint64)
	for _, ctl := range dom.Controllers {
		ctl := ctl
		lr.invokeWait(fabric.NodeID(ctl.ID()), func() {
			res.MetaPublished += ctl.MetaPublished
			res.MetaReshares += ctl.Reshares
			res.MetaStaleShares += ctl.MetaStaleShares
			st := ctl.MetaStore()
			if st == nil {
				return
			}
			for reason, count := range st.Rejections() {
				res.MetaRejects[reason] += uint64(count)
			}
			if rt := st.Root(); rt != nil && rt.Version > res.MetaRootVersion {
				res.MetaRootVersion = rt.Version
			}
			for _, env := range st.CurrentSet() {
				var doc struct {
					Version uint64 `json:"version"`
				}
				if json.Unmarshal(env.Signed, &doc) != nil {
					continue
				}
				ref[fmt.Sprintf("%s|%d", env.Role, doc.Version)] = sha256.Sum256(env.Signed)
			}
			_, tg, _, _ := st.Versions()
			if tg > maxTargets {
				maxTargets = tg
			}
		})
	}

	// Sweep 1: record the settled version vectors and run the forgery
	// checks against the settled state — before the replay probe below
	// rewrites a bypassed store's contents.
	before := make(map[string]liveMetaSnapshot, len(lr.switches))
	for _, swID := range lr.switches {
		sw := lr.net.Switches[swID]
		swID := swID
		lr.invokeWait(fabric.NodeID(swID), func() {
			st := sw.MetaStore()
			if st == nil {
				return
			}
			rt, tg, sn, ts := st.Versions()
			before[swID] = liveMetaSnapshot{rt, tg, sn, ts}
			if tg > maxTargets {
				lr.report(InvMetaForged, swID+"|ahead",
					fmt.Sprintf("switch %s holds targets v%d but no controller is past v%d", swID, tg, maxTargets), swID)
			}
			for _, env := range st.CurrentSet() {
				var doc struct {
					Version uint64 `json:"version"`
				}
				if json.Unmarshal(env.Signed, &doc) != nil {
					continue
				}
				key := fmt.Sprintf("%s|%d", env.Role, doc.Version)
				want, ok := ref[key]
				if !ok {
					continue
				}
				if sha256.Sum256(env.Signed) != want {
					lr.report(InvMetaForged, swID+"|"+key,
						fmt.Sprintf("switch %s holds a %s v%d no controller signed", swID, env.Role, doc.Version), swID)
				}
			}
		})
	}

	// Forgeries any switch adopted during the run, even if since
	// overwritten by a later envelope.
	for _, f := range lr.metaWitness.drain() {
		lr.report(InvMetaForged, f.dedupKey, f.detail, f.sw)
	}

	// Final replay against the settled system, then let it land.
	lr.metaAttackWave("post-drain wave", true)
	time.Sleep(liveMetaProbeSettle)

	// Sweep 2: regression and freshness checks.
	nowNS := int64(lr.fab.Now())
	for _, swID := range lr.switches {
		sw := lr.net.Switches[swID]
		swID := swID
		lr.invokeWait(fabric.NodeID(swID), func() {
			st := sw.MetaStore()
			if st == nil {
				return
			}
			res.MetaConfigRejects += sw.MetaConfigRejects
			for reason, count := range st.Rejections() {
				res.MetaRejects[reason] += uint64(count)
			}
			rt, tg, sn, ts := st.Versions()
			cur := liveMetaSnapshot{rt, tg, sn, ts}
			if prev, ok := before[swID]; ok &&
				(cur.root < prev.root || cur.targets < prev.targets ||
					cur.snapshot < prev.snapshot || cur.timestamp < prev.timestamp) {
				lr.report(InvMetaRollback, swID,
					fmt.Sprintf("switch %s store regressed after the post-drain replay: %+v -> %+v", swID, prev, cur), swID)
			}
			// A store claiming freshness must hold a live proof; an honest
			// store past expiry reports itself stale and is skipped.
			if tg > 0 && st.Fresh(nowNS) {
				doc := st.TimestampDoc()
				if doc == nil || nowNS > doc.ExpiresNS+int64(liveMetaStaleGrace) {
					lr.report(InvStalePolicy, swID,
						fmt.Sprintf("switch %s claims policy v%d is fresh without a live proof", swID, tg), swID)
				}
			}
		})
	}
}
