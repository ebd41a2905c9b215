// Batch-signed updates: the one signing path of switch-aggregated Cicero.
//
// Every delivered broadcast slot is a batch of events — with
// Config.BatchSize <= 1 a batch of one. The controller plans every event
// of the batch, hashes the resulting updates' canonical bytes into a
// Merkle tree, signs only BatchBytes(phase, root), and dispatches each
// update with its inclusion proof (protocol.MsgBatchUpdate). Switches
// verify proofs with pure hashing and pay the pairing check once per
// batch root, so larger batches amortize the threshold crypto further.
//
// Retransmissions (switch resync, redispatch of unacked updates) and
// dispatches that outlive their batch's membership phase go out as
// singleton batches: a one-leaf tree whose root is H(0x00‖leaf). Every
// controller that sends the same update alone computes the same root, so
// singleton retransmissions pool at the switch no matter which batch
// each controller first delivered the update in.
//
// The no-forged-rule guarantee: the root binds every leaf's exact content
// and position, a quorum of t = ⌊(n−1)/3⌋+1 root shares vouches for at
// least one honest controller, and a switch only acts on an update whose
// proof verifies against a quorum-signed root and whose release t
// distinct members attested. The audit ledger records per-update
// canonical bytes, so runs at every batch size produce identical ledger
// content — the digest cross-check the scale benchmark enforces.
//
// Dispatch remains dependency-driven with no batch-completion barrier:
// plans enter the scheduler engine individually and each update leaves the
// moment its dependencies clear, carrying the already-computed proof.
package controlplane

import (
	"cicero/internal/audit"
	"cicero/internal/fabric"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/scheduler"
	"cicero/internal/tcrypto/merkle"
)

// batchRef is the signing context of one planned update: everything
// dispatch needs to send it as a MsgBatchUpdate. The share is computed
// once per batch and referenced by every update in it.
type batchRef struct {
	phase uint64
	root  []byte
	index int
	count int
	proof [][]byte
	share []byte
}

// batchingEnabled reports whether updates travel batch-signed: the full
// protocol whenever switches aggregate (no aggregator is designated, the
// same test aggregatorID makes). The baselines send unsigned MsgUpdates,
// and the aggregator baseline combines per-update shares.
func (c *Controller) batchingEnabled() bool {
	return c.cfg.Protocol == ProtoCicero && c.cfg.Aggregation != AggController
}

// onDeliverBatch consumes one totally-ordered batch of broadcast items
// (Fig. 7b; unbatched ordering delivers batches of one). Events are
// deduplicated and appended to the ledger here; planning and signing are
// deferred to deliverEventBatch so the batch's events share one Merkle
// tree. Membership changes flush the events accumulated so far first,
// preserving the delivered order's semantics.
func (c *Controller) onDeliverBatch(payloads [][]byte) {
	if c.stopped {
		return
	}
	var evs []protocol.Event
	flush := func() {
		if len(evs) > 0 {
			c.deliverEventBatch(evs)
			evs = nil
		}
	}
	for _, payload := range payloads {
		delete(c.pendingSubmit, string(payload))
		item, err := protocol.DecodeBroadcastItem(payload)
		if err != nil {
			continue
		}
		if item.Membership != nil {
			flush()
			c.onMembershipDelivered(*item.Membership)
			continue
		}
		if item.Event == nil {
			continue
		}
		ev := *item.Event
		key := ev.ID.String()
		if c.deliveredEvents[key] {
			continue
		}
		// Events arriving during a membership change are queued and re-
		// broadcast in the new phase (§4.3); they are NOT marked delivered.
		if c.change != nil {
			c.change.queued = append(c.change.queued, ev)
			continue
		}
		c.deliveredEvents[key] = true
		c.EventsDelivered++
		c.ledger.Append(audit.KindEvent, key, ev.Encode())
		evs = append(evs, ev)
	}
	flush()
}

// deliverEventBatch plans every event of a delivered batch, signs one
// Merkle root over all resulting updates, then releases the plans into the
// scheduler engine (updates dispatch individually as dependencies clear).
func (c *Controller) deliverEventBatch(evs []protocol.Event) {
	plans := make([]scheduler.Plan, 0, len(evs))
	for _, ev := range evs {
		if plan, ok := c.planEvent(ev); ok {
			plans = append(plans, plan)
		}
	}
	if c.batchingEnabled() {
		c.signUpdateBatch(plans)
	}
	for _, plan := range plans {
		// Event replay is impossible here (deliveredEvents dedups upstream),
		// and the engine tolerates acks that raced ahead of this plan — a
		// switch can apply an update via the other controllers' quorum
		// before this controller delivers the event. A failure therefore
		// indicates a malformed plan from the scheduler; dropping it is the
		// only safe move.
		if err := c.engine.Add(plan); err != nil {
			continue
		}
	}
}

// signUpdateBatch builds the Merkle tree over the batch's updates (leaf
// order: delivery order of events, plan order within each event — identical
// on every correct controller), signs the root once, and records each
// update's inclusion proof for dispatch.
func (c *Controller) signUpdateBatch(plans []scheduler.Plan) {
	var leaves [][]byte
	for _, plan := range plans {
		for _, su := range plan {
			leaves = append(leaves, openflow.CanonicalUpdateBytes(su.ID, c.phase, []openflow.FlowMod{su.Mod}))
		}
	}
	if len(leaves) == 0 {
		return
	}
	tree := merkle.NewTree(leaves)
	root := tree.Root()
	// One signing ceremony for the whole batch.
	share := c.signRoot(c.phase, root[:])
	idx := 0
	for _, plan := range plans {
		for _, su := range plan {
			c.batchOf[su.ID.String()] = &batchRef{
				phase: c.phase,
				root:  root[:],
				index: idx,
				count: len(leaves),
				proof: tree.Proof(idx),
				share: share,
			}
			idx++
		}
	}
	c.BatchesSigned++
}

// signRoot charges one share-signing and returns this controller's
// threshold share over BatchBytes(phase, root) (nil without real crypto
// or without a share).
func (c *Controller) signRoot(phase uint64, root []byte) []byte {
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.BLSSignShare)
	if !c.cfg.CryptoReal || c.cfg.Share.Scalar == nil {
		return nil
	}
	share := c.cfg.Scheme.SignShare(c.cfg.Share, protocol.BatchBytes(phase, root))
	return c.cfg.Scheme.Params.PointBytes(share.Point)
}

// sendSingleton signs and sends one update as a one-leaf batch. Its root
// is the leaf hash of the update's canonical bytes, the same at every
// controller, so singletons from different controllers pool at the
// switch however each of them first batched the update.
func (c *Controller) sendSingleton(id openflow.MsgID, phase uint64, mods []openflow.FlowMod, resend bool) {
	if len(mods) == 0 || c.cfg.Share.Scalar == nil {
		return // a retired member holds no share to contribute
	}
	root := merkle.LeafHash(openflow.CanonicalUpdateBytes(id, phase, mods))
	ref := &batchRef{phase: phase, root: root[:], count: 1, share: c.signRoot(phase, root[:])}
	c.sendBatchUpdate(id, mods, ref, resend)
}

// sendBatchUpdate sends one update with its batch root, inclusion proof,
// the (per-batch) root signature share, and a per-update Ed25519 release
// attestation. The BLS share was computed once per batch; only the cheap
// release signature is per-dispatch — it is what lets the switch count
// this controller toward the update's release quorum by authenticated
// identity rather than by a self-declared share index.
func (c *Controller) sendBatchUpdate(id openflow.MsgID, mods []openflow.FlowMod, ref *batchRef, resend bool) {
	if len(mods) == 0 || c.cfg.Share.Scalar == nil {
		return // a retired member holds no share to contribute
	}
	c.cfg.Net.Charge(fabric.NodeID(c.cfg.ID), c.cfg.Cost.Ed25519Sign)
	var releaseSig []byte
	if c.cfg.CryptoReal {
		releaseSig = c.cfg.Keys.Sign(protocol.BatchReleaseBytes(id, ref.phase, ref.root))
	}
	msg := protocol.MsgBatchUpdate{
		UpdateID:   id,
		Mods:       mods,
		Phase:      ref.phase,
		From:       c.cfg.ID,
		BatchRoot:  ref.root,
		LeafIndex:  ref.index,
		LeafCount:  ref.count,
		Proof:      ref.proof,
		ShareIndex: c.cfg.Share.Index,
		Share:      ref.share,
		ReleaseSig: releaseSig,
		Resend:     resend,
	}
	size := 256*len(mods) + merkle.HashSize*(len(ref.proof)+2) + 64
	c.cfg.Net.Send(fabric.NodeID(c.cfg.ID), fabric.NodeID(mods[0].Switch), msg, size)
}
