package chaos

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"cicero/internal/bft"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
)

// injector implements the simnet filter: per-message link faults plus
// Byzantine mutation of the designated controller's outgoing traffic. It
// runs on the simulator loop and draws only from the chaos RNG, keeping
// runs seed-deterministic.
type injector struct {
	r        *run
	forgeSeq uint64
}

func newInjector(r *run) *injector { return &injector{r: r} }

// byzMutateProb is the chance the Byzantine controller tampers with one of
// its own outgoing shares or proposals.
const byzMutateProb = 0.3

func (in *injector) filter(from, to simnet.NodeID, msg simnet.Message, size int) simnet.FaultAction {
	r := in.r
	var act simnet.FaultAction

	// Byzantine mutation of the designated controller's own traffic.
	if r.byz != "" && from == r.byz {
		if replaced := in.byzMutate(to, msg); replaced != nil {
			act.Replace = replaced
			msg = replaced
		}
	}

	lf := r.p.Link
	if lf.DropProb > 0 && r.rng.Float64() < lf.DropProb {
		r.counter.Add("drop", 1)
		r.tr.Add(r.net.Sim.Now(), "inj-drop", fmt.Sprintf("%s->%s %T", from, to, msg))
		return simnet.FaultAction{Drop: true}
	}
	if lf.CorruptProb > 0 && r.rng.Float64() < lf.CorruptProb {
		if corrupted := corruptMessage(msg); corrupted != nil {
			act.Replace = corrupted
			r.counter.Add("corrupt", 1)
			r.tr.Add(r.net.Sim.Now(), "inj-corrupt", fmt.Sprintf("%s->%s %T", from, to, msg))
		}
	}
	if lf.DupProb > 0 && r.rng.Float64() < lf.DupProb {
		act.Duplicates = 1
		r.counter.Add("dup", 1)
		r.tr.Add(r.net.Sim.Now(), "inj-dup", fmt.Sprintf("%s->%s %T", from, to, msg))
	}
	if lf.DelayProb > 0 && lf.DelayMax > 0 && r.rng.Float64() < lf.DelayProb {
		act.Delay = time.Duration(r.rng.Int63n(int64(lf.DelayMax)))
		r.counter.Add("delay", 1)
		r.tr.Add(r.net.Sim.Now(), "inj-delay", fmt.Sprintf("%s->%s %T +%v", from, to, msg, act.Delay))
	}
	return act
}

// corruptMessage returns a deep-copied message with one payload byte
// flipped, or nil for message types the injector leaves alone. Only
// authenticated payloads are corrupted: events, acks, shares, and
// aggregates all carry signatures that real crypto rejects. BFT transport
// is modeled as an authenticated channel (the enclosing layer seals it),
// so flipping its bytes would simulate a broken transport, not a network
// fault, and is off-limits; so is MsgConfig (threshold-signed, but only
// sent on membership changes that campaigns do not exercise).
func corruptMessage(msg simnet.Message) simnet.Message {
	flip := func(b []byte) []byte {
		if len(b) == 0 {
			return b
		}
		out := append([]byte(nil), b...)
		out[len(out)/2] ^= 0x40
		return out
	}
	switch m := msg.(type) {
	case protocol.MsgEvent:
		m.Env.Payload = flip(m.Env.Payload)
		return m
	case protocol.MsgAck:
		m.Env.Payload = flip(m.Env.Payload)
		return m
	case protocol.MsgAggUpdate:
		m.Signature = flip(m.Signature)
		return m
	case protocol.MsgBatchUpdate:
		if len(m.Share) > 0 {
			m.Share = flip(m.Share)
		} else if len(m.Proof) > 0 {
			proof := make([][]byte, len(m.Proof))
			copy(proof, m.Proof)
			proof[0] = flip(proof[0])
			m.Proof = proof
		} else {
			m.ShareIndex = 0 // malformed share
		}
		return m
	}
	return nil
}

// byzMutate tampers with the Byzantine controller's outgoing message, or
// returns nil to send it untouched. Mutations are the paper's §2 threat
// model: forged batch roots, content spliced under honest proofs, bad
// signature shares, equivocating proposals. They must never fabricate data that would pass verification —
// the point is proving the protocol rejects them.
func (in *injector) byzMutate(to simnet.NodeID, msg simnet.Message) simnet.Message {
	r := in.r
	switch m := msg.(type) {
	case protocol.MsgBatchUpdate:
		out, kind := byzMutateBatch(r.rng, m)
		if kind == "" {
			return nil
		}
		r.counter.Add(kind, 1)
		r.tr.Add(r.net.Sim.Now(), kind, fmt.Sprintf("->%s %s", to, out.UpdateID))
		return out
	case protocol.MsgBFT:
		out, kind := byzMutateBFT(r.rng, r.hosts, &in.forgeSeq, m)
		if kind == "" {
			return nil
		}
		pp := out.Inner.(bft.PrePrepare)
		r.counter.Add(kind, 1)
		r.tr.Add(r.net.Sim.Now(), kind, fmt.Sprintf("->%s seq=%d", to, pp.Seq))
		return out
	}
	return nil
}

// byzMutateBatch applies one of the batch-path mutations: a forged batch
// root (the inclusion proof can no longer verify), a content splice (the
// rule bytes change under the honest root and proof — exactly what the
// Merkle binding must reject), or a garbage root share (the per-batch
// aggregate must fail and keep the batch pending for honest shares).
func byzMutateBatch(rng *rand.Rand, m protocol.MsgBatchUpdate) (protocol.MsgBatchUpdate, string) {
	if rng.Float64() >= byzMutateProb {
		return m, ""
	}
	switch rng.Intn(3) {
	case 0: // forged batch root
		m.BatchRoot = garbageBytes(rng, len(m.BatchRoot))
		return m, "byz-forged-root"
	case 1: // splice forged rule content under the honest root+proof
		mods := append([]openflow.FlowMod(nil), m.Mods...)
		for i := range mods {
			mods[i].Rule.Action = openflow.Action{Type: openflow.ActionOutput, NextHop: "byz/blackhole"}
		}
		m.Mods = mods
		return m, "byz-batch-splice"
	default: // garbage root share
		m.Share = garbageBytes(rng, len(m.Share))
		return m, "byz-bad-root-share"
	}
}

// byzMutateBFT equivocates on a PrePrepare: it proposes a different
// (well-formed) payload to this receiver, with a digest that matches the
// forged payload so only the agreement protocol itself can catch the lie.
// The forged event names real hosts: if it ever got ordered it would
// install consistent rules, so any invariant violation it caused would be
// the protocol's fault, not malformed input.
func byzMutateBFT(rng *rand.Rand, hosts []string, forgeSeq *uint64, m protocol.MsgBFT) (protocol.MsgBFT, string) {
	pp, ok := m.Inner.(bft.PrePrepare)
	if !ok || rng.Float64() >= byzMutateProb {
		return m, ""
	}
	*forgeSeq++
	ev := protocol.Event{
		ID:   openflow.MsgID{Origin: "byz/equiv", Seq: *forgeSeq},
		Kind: protocol.EventFlowRequest,
		Src:  hosts[rng.Intn(len(hosts))],
		Dst:  hosts[rng.Intn(len(hosts))],
	}
	payload, err := json.Marshal(protocol.BroadcastItem{Event: &ev, Phase: m.Phase})
	if err != nil {
		return m, ""
	}
	pp.Payload = payload
	pp.Digest = bft.PayloadDigest(payload)
	m.Inner = pp
	return m, "byz-equivocate"
}

// garbageBytes returns n deterministic pseudo-random bytes (not a valid
// curve point with overwhelming probability).
func garbageBytes(rng *rand.Rand, n int) []byte {
	if n == 0 {
		n = 33
	}
	out := make([]byte, n)
	rng.Read(out)
	return out
}
