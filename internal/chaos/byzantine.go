package chaos

import (
	"fmt"
	"time"

	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/tcrypto/merkle"
)

// scheduleByzantine draws timed forged-message injections from the
// Byzantine controller: fabricated share quorums, forged pre-aggregated
// updates, and bare PACKET_OUTs (the §2.2 attack). All forgeries carry
// unique "byz/forge" update ids and garbage signatures — real
// verification must reject every one; with the canary (verification
// bypassed) they apply and the no-forged-rule invariant must fire.
func (r *run) scheduleByzantine() {
	if r.byz == "" {
		return
	}
	n := r.net
	quorum := r.net.Domains[0].Controllers[0].Quorum()
	const kinds = 4
	const injections = 6
	for i := 0; i < injections; i++ {
		at := 10*time.Millisecond + time.Duration(r.rng.Int63n(int64(r.p.FlowWindow)))
		sw := r.switches[r.rng.Intn(len(r.switches))]
		dst := r.hosts[r.rng.Intn(len(r.hosts))]
		kind := r.rng.Intn(kinds)
		seq := uint64(i + 1)
		sig := garbageBytes(r.rng, 33)
		root := garbageBytes(r.rng, merkle.HashSize)
		shareSigs := make([][]byte, quorum)
		for j := range shareSigs {
			shareSigs[j] = garbageBytes(r.rng, 33)
		}
		n.Sim.At(at, func() {
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
				// A full fabricated per-update share quorum: threshold
				// switches take only batch-signed updates and must reject
				// every copy outright, canary or not.
				for j := 0; j < quorum; j++ {
					msg := protocol.MsgUpdate{
						UpdateID:   id,
						Mods:       mods,
						Phase:      1,
						From:       "byz",
						ShareIndex: uint32(j + 1),
						Share:      shareSigs[j],
					}
					n.Net.Send(r.byz, simnet.NodeID(sw), msg, 512)
				}
				r.counter.Add("byz-forge-shares", 1)
				r.tr.Add(n.Sim.Now(), "byz-forge-shares", fmt.Sprintf("->%s %s dst=%s", sw, id, dst))
			case 1:
				// A forged pre-aggregated update.
				msg := protocol.MsgAggUpdate{UpdateID: id, Mods: mods, Phase: 1, Signature: sig}
				n.Net.Send(r.byz, simnet.NodeID(sw), msg, 512)
				r.counter.Add("byz-forge-agg", 1)
				r.tr.Add(n.Sim.Now(), "byz-forge-agg", fmt.Sprintf("->%s %s dst=%s", sw, id, dst))
			case 2:
				// A bare PACKET_OUT: switches must drop it outright.
				msg := openflow.PacketOut{Switch: sw, Src: probeSrc, Dst: dst}
				n.Net.Send(r.byz, simnet.NodeID(sw), msg, 256)
				r.counter.Add("byz-packet-out", 1)
				r.tr.Add(n.Sim.Now(), "byz-packet-out", fmt.Sprintf("->%s dst=%s", sw, dst))
			default:
				// A fabricated batch-share quorum under a forged root: the
				// inclusion proof must reject every copy before a single
				// share reaches the quorum pool; with the canary planted
				// they apply and both the no-forged-rule and the
				// forged-batch-proof invariants must fire.
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
					n.Net.Send(r.byz, simnet.NodeID(sw), msg, 512)
				}
				r.counter.Add("byz-forge-batch", 1)
				r.tr.Add(n.Sim.Now(), "byz-forge-batch", fmt.Sprintf("->%s %s dst=%s", sw, id, dst))
			}
		})
	}
}
