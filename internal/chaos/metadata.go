package chaos

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"cicero/internal/metarepo"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/tcrypto/pki"
)

// Metadata-plane invariants.
const (
	// InvStalePolicy: a switch store that claims its adopted policy is
	// fresh must hold a live freshness proof. The checker reads the
	// timestamp document itself and compares it against the store's own
	// Fresh verdict, so a lying (bypassed) store frozen on a withheld or
	// replayed timestamp surfaces here, while an honest store that
	// correctly reports itself stale does not (knowing you are stale is
	// the freeze defense working).
	InvStalePolicy = "stale-policy"
	// InvMetaRollback: no store's adopted versions ever regress.
	InvMetaRollback = "meta-store-rollback"
	// InvMetaForged: every envelope a switch store holds must be one an
	// honest controller signed and adopted — byte-identical at the same
	// role and version, and never a version ahead of every honest
	// controller. Forged role keys and spliced sets surface here.
	InvMetaForged = "meta-store-forged"
)

// metaTimestampTTL/metaRefreshEvery are the campaign's freshness regime:
// proofs live 40ms and the leader re-mints every 15ms, so an honest
// store is never more than one missed refresh from expiry while a
// frozen one expires well inside the run.
const (
	metaTimestampTTL  = 40 * time.Millisecond
	metaRefreshEvery  = 15 * time.Millisecond
	metaStaleGrace    = metaTimestampTTL // one extra TTL of slack for multicast latency
	metaDocumentTTL   = time.Hour
	metaCaptureAt     = 20 * time.Millisecond
	metaRemoveAt      = 30 * time.Millisecond
	metaAttackAt      = 55 * time.Millisecond
	metaRotateAt      = 65 * time.Millisecond
	metaSecondWaveAt  = 80 * time.Millisecond
	metaFirstPublish  = 8 * time.Millisecond
	metaAttackMsgSize = 768
)

// metaRefreshHorizon bounds the leader's timestamp-refresh loop: the
// whole budget normally, only the front half under the bypass canary —
// modelling a withholding attacker whose victim stores then sit on
// expired proofs while (being bypassed) still claiming freshness.
func metaRefreshHorizon(p Profile) time.Duration {
	if p.CanaryMetaBypass {
		return p.SimBudget / 2
	}
	return p.SimBudget
}

// scheduleMetadata drives the metadata-plane campaign: policy
// publications under load, a membership change whose reshare rotates
// the root and retires the removed member, and a Byzantine metadata
// attacker sourced from that retired controller — replayed old
// versions, withheld (replayed-stale) timestamps, snapshots spliced
// across sets, forged role keys, and a post-reshare retired-share
// signature against a live root rotation.
func (r *run) scheduleMetadata() {
	if !r.p.Metadata {
		return
	}
	n := r.net
	dom := n.Domains[0]
	leader := dom.Controllers[0]
	removed := dom.Members[len(dom.Members)-1]
	attacker := simnet.NodeID(removed)

	// The forger's key never touches the chaos RNG (key material stays
	// out of the trace) and is never registered anywhere: no root ever
	// delegated to it, so every signature it mints must be rejected.
	forgeKeys, err := pki.NewKeyPair(rand.Reader, "meta/forger")
	if err != nil {
		return
	}

	publish := func(tag string) {
		members := make([]string, 0, len(leader.Members()))
		for _, m := range leader.Members() {
			members = append(members, string(m))
		}
		leader.PublishPolicy(metarepo.Policy{
			Phase:   leader.Phase(),
			Members: members,
			Quorum:  leader.Quorum(),
			Flows:   []metarepo.FlowPolicy{{Src: r.hosts[0], Dst: r.hosts[len(r.hosts)-1], Allow: true}},
		})
		r.tr.Add(n.Sim.Now(), "meta-publish", tag)
	}

	n.Sim.At(metaFirstPublish, func() { publish("initial policy") })

	// Capture the pre-change metadata set for replay/splice attacks.
	var oldSet []protocol.MetaEnvelope
	n.Sim.At(metaCaptureAt, func() {
		if st := leader.MetaStore(); st != nil {
			oldSet = st.CurrentSet()
		}
	})

	// Membership change mid-campaign: proactive resharing installs fresh
	// shares, the leader rotates the root, and the removed member's role
	// key retires everywhere.
	if len(dom.Members) > 4 {
		n.Sim.At(metaRemoveAt, func() {
			if err := leader.RequestRemoveController(removed); err == nil {
				r.counter.Add("meta-remove", 1)
				r.tr.Add(n.Sim.Now(), "meta-remove", string(removed))
			}
		})
	}

	envByRole := func(set []protocol.MetaEnvelope, role string) (protocol.MetaEnvelope, bool) {
		for _, env := range set {
			if env.Role == role {
				return env, true
			}
		}
		return protocol.MetaEnvelope{}, false
	}

	attack := func(wave string) {
		if len(oldSet) == 0 {
			return
		}
		for _, swID := range r.switches {
			sw := simnet.NodeID(swID)
			// Replayed old versions: the full pre-change set.
			n.Net.Send(attacker, sw, protocol.MsgMetaSet{Envs: oldSet}, metaAttackMsgSize)
			// Withheld timestamps, actively: keep re-serving the stale
			// freshness proof so a broken store stays frozen on it.
			if ts, ok := envByRole(oldSet, protocol.MetaRoleTimestamp); ok {
				n.Net.Send(attacker, sw, protocol.MsgMeta{Env: ts}, metaAttackMsgSize)
			}
			// Spliced snapshot: the old snapshot crossed with whatever
			// targets the victim currently trusts.
			if sn, ok := envByRole(oldSet, protocol.MetaRoleSnapshot); ok {
				splice := []protocol.MetaEnvelope{sn}
				if st := n.Switches[swID].MetaStore(); st != nil {
					if tg, ok := envByRole(st.CurrentSet(), protocol.MetaRoleTargets); ok {
						splice = append(splice, tg)
					}
				}
				n.Net.Send(attacker, sw, protocol.MsgMetaSet{Envs: splice}, metaAttackMsgSize)
			}
			// Forged role key: a far-future targets document signed by a
			// key the root never delegated.
			doc := metarepo.Targets{
				Version:   1000,
				IssuedNS:  int64(n.Sim.Now()),
				ExpiresNS: int64(n.Sim.Now()) + int64(metaDocumentTTL),
			}
			signed := metarepo.Encode(doc)
			env := protocol.MetaEnvelope{
				Role:   protocol.MetaRoleTargets,
				Signed: signed,
				Sigs:   []protocol.MetaSig{metarepo.SignRole(forgeKeys, protocol.MetaRoleTargets, signed)},
			}
			n.Net.Send(attacker, sw, protocol.MsgMeta{Env: env}, metaAttackMsgSize)
		}
		r.counter.Add("meta-attack-wave", 1)
		r.tr.Add(n.Sim.Now(), "meta-attack", wave)
	}
	n.Sim.At(metaAttackAt, func() { attack("first wave") })
	n.Sim.At(metaSecondWaveAt, func() { attack("second wave") })

	// Retired-share signature: open a live root rotation and slip in a
	// BLS share minted from the pre-reshare sharing. The collector
	// verifies shares against the current Feldman commitments, so the
	// retired share must be rejected even though the group public key is
	// unchanged.
	n.Sim.At(metaRotateAt, func() {
		st := leader.MetaStore()
		if st == nil {
			return
		}
		cur := st.Root()
		if cur == nil {
			return
		}
		var keys []metarepo.RoleKey
		for _, m := range leader.Members() {
			pub, ok := n.Directory.Lookup(m)
			if !ok {
				return
			}
			keys = append(keys, metarepo.RoleKey{KeyID: string(m), Pub: append([]byte(nil), pub...)})
		}
		next := metarepo.RootAt(cur.Version+1, leader.Quorum(), keys,
			int64(n.Sim.Now()), int64(metaDocumentTTL))
		signed := metarepo.Encode(next)
		leader.RotateRoot()
		// dom.Shares is the build-time sharing; after the in-run reshare
		// it is retired. Deliver synchronously so the collector is still
		// open (only the leader's own fresh share has arrived).
		stale := r.net.Scheme.SignShare(dom.Shares[1],
			protocol.MetaSigningBytes(protocol.MetaRoleRoot, signed))
		leader.HandleMessage(attacker, protocol.MsgMetaShare{
			Version: next.Version, Signed: signed,
			ShareIndex: stale.Index,
			Share:      r.net.Scheme.Params.PointBytes(stale.Point),
		})
		r.counter.Add("meta-retired-share", 1)
		r.tr.Add(n.Sim.Now(), "meta-retired-share", fmt.Sprintf("root v%d", next.Version))
	})
}

// metaVersions is one store's adopted version vector, tracked across
// sweeps for regression detection.
type metaVersions struct {
	root, targets, snapshot, timestamp uint64
}

// checkMetadata sweeps the metadata invariant plane: per-store version
// monotonicity, switch-store content against honest controller stores,
// and freshness of every adopted policy.
func (ck *checker) checkMetadata() {
	if !ck.r.p.Metadata {
		return
	}
	n := ck.r.net
	now := int64(n.Sim.Now())

	// Reference: every (role, version) -> digest an honest controller
	// store currently holds, and the highest honest targets version.
	ref := make(map[string][32]byte)
	var maxTargets uint64
	for _, c := range ck.honestControllers() {
		st := c.MetaStore()
		if st == nil {
			continue
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
	}

	for _, swID := range ck.r.switches {
		st := n.Switches[swID].MetaStore()
		if st == nil {
			continue
		}
		rt, tg, sn, ts := st.Versions()
		cur := metaVersions{rt, tg, sn, ts}
		prev, seen := ck.metaSeen[swID]
		if seen && (cur.root < prev.root || cur.targets < prev.targets ||
			cur.snapshot < prev.snapshot || cur.timestamp < prev.timestamp) {
			ck.report(InvMetaRollback, swID,
				fmt.Sprintf("switch %s store regressed: %+v -> %+v", swID, prev, cur), swID)
		}
		if !seen || cur.root > prev.root || cur.targets > prev.targets ||
			cur.snapshot > prev.snapshot || cur.timestamp > prev.timestamp {
			ck.metaSeen[swID] = cur
		}
		if tg > maxTargets {
			ck.report(InvMetaForged, swID+"|ahead",
				fmt.Sprintf("switch %s holds targets v%d but no honest controller is past v%d",
					swID, tg, maxTargets), swID)
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
				continue // honest stores moved on; absence proves nothing
			}
			if sha256.Sum256(env.Signed) != want {
				ck.report(InvMetaForged, swID+"|"+key,
					fmt.Sprintf("switch %s holds a %s v%d no honest controller signed", swID, env.Role, doc.Version),
					swID)
			}
		}
		// Freshness: a store claiming its policy is fresh must hold a live
		// proof — the document itself, not the store's possibly-lying Fresh
		// verdict, is what counts. An honest store past expiry reports
		// itself stale and is skipped: refusing to vouch IS the defense.
		if tg > 0 && st.Fresh(now) {
			doc := st.TimestampDoc()
			if doc == nil || now > doc.ExpiresNS+int64(metaStaleGrace) {
				ck.report(InvStalePolicy, swID,
					fmt.Sprintf("switch %s claims policy v%d is fresh without a live proof", swID, tg),
					swID)
			}
		}
	}

	// Forgeries adopted since the last sweep, even if since overwritten.
	for _, f := range ck.meta.drain() {
		ck.report(InvMetaForged, f.dedupKey, f.detail, f.sw)
	}
}

// metaWitness checks every envelope a switch store adopts, at the moment
// of adoption, against the envelopes the watched controllers adopted.
// A bypassed store can adopt a forgery and overwrite it with an honest
// envelope moments later, so sampling only the settled stores misses
// forgeries depending on timing. Controllers adopt their own
// publications before multicasting them, so an honest envelope is always
// recorded before any switch can adopt it. The hooks run on the stores'
// goroutines; findings wait in the witness until a sweep reports them.
type metaWitness struct {
	mu sync.Mutex
	// signed maps "role|version" to the digests watched controllers
	// adopted there; maxTargets is the highest such targets version.
	signed     map[string]map[[32]byte]bool
	maxTargets uint64
	forged     []metaForgery
}

// metaForgery is one forged adoption, keyed like the settled-state
// checks so a forgery caught both ways reports once.
type metaForgery struct {
	sw, dedupKey, detail string
}

func newMetaWitness() *metaWitness {
	return &metaWitness{signed: make(map[string]map[[32]byte]bool)}
}

// watchController records what the controller store holds now and
// everything it adopts from here on as honestly signed.
func (w *metaWitness) watchController(st *metarepo.Store) {
	for _, env := range st.CurrentSet() {
		var doc struct {
			Version uint64 `json:"version"`
		}
		if json.Unmarshal(env.Signed, &doc) == nil {
			w.controllerAdopted(env.Role, doc.Version, env)
		}
	}
	st.SetAdoptHook(w.controllerAdopted)
}

func (w *metaWitness) controllerAdopted(role string, version uint64, env protocol.MetaEnvelope) {
	key := fmt.Sprintf("%s|%d", role, version)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.signed[key] == nil {
		w.signed[key] = make(map[[32]byte]bool)
	}
	w.signed[key][sha256.Sum256(env.Signed)] = true
	if role == protocol.MetaRoleTargets && version > w.maxTargets {
		w.maxTargets = version
	}
}

// watchSwitch checks every envelope the switch store adopts.
func (w *metaWitness) watchSwitch(swID string, st *metarepo.Store) {
	st.SetAdoptHook(func(role string, version uint64, env protocol.MetaEnvelope) {
		key := fmt.Sprintf("%s|%d", role, version)
		w.mu.Lock()
		defer w.mu.Unlock()
		switch digests := w.signed[key]; {
		case role == protocol.MetaRoleTargets && version > w.maxTargets:
			w.forged = append(w.forged, metaForgery{swID, swID + "|ahead",
				fmt.Sprintf("switch %s adopted targets v%d but no controller is past v%d", swID, version, w.maxTargets)})
		case len(digests) > 0 && !digests[sha256.Sum256(env.Signed)]:
			w.forged = append(w.forged, metaForgery{swID, swID + "|" + key,
				fmt.Sprintf("switch %s adopted a %s v%d no controller signed", swID, role, version)})
		}
	})
}

// drain returns the forgeries found since the last call.
func (w *metaWitness) drain() []metaForgery {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.forged
	w.forged = nil
	return out
}
