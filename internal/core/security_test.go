package core

import (
	"crypto/rand"
	"math/big"
	"testing"

	"cicero/internal/controlplane"
	"cicero/internal/openflow"
	"cicero/internal/protocol"
	"cicero/internal/simnet"
	"cicero/internal/tcrypto/merkle"
	"cicero/internal/tcrypto/pki"
	"cicero/internal/topology"
	"cicero/internal/workload"
)

// These tests exercise the paper's threat model (§2.2/§3.2) end to end
// with real cryptography: a malicious controller — even an authenticated
// member of the control plane — cannot make switches apply updates without
// a quorum of t = ⌊(n−1)/3⌋+1 signature shares.

// buildSecure builds a real-crypto Cicero pod.
func buildSecure(t *testing.T, agg controlplane.Aggregation) *Network {
	t.Helper()
	cfg := topology.DefaultFabricConfig()
	cfg.RacksPerPod = 3
	cfg.HostsPerRack = 1
	g, err := topology.BuildSinglePod(cfg)
	if err != nil {
		t.Fatalf("BuildSinglePod: %v", err)
	}
	n, err := Build(Config{
		Graph:       g,
		Protocol:    controlplane.ProtoCicero,
		Aggregation: agg,
		Cost:        protocol.Calibrated(),
		CryptoReal:  true,
		Seed:        21,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

// evilNode is a Byzantine controller implementation used to inject
// forged traffic from a registered network position.
type evilNode struct{}

func (evilNode) HandleMessage(simnet.NodeID, simnet.Message) {}

// singletonUpdate builds a one-leaf batch update for mod, sent as domain
// member `member`: release-attested with that member's identity key and
// carrying share bytes under the claimed share index.
func singletonUpdate(n *Network, id openflow.MsgID, mod openflow.FlowMod, member int, idx uint32, share []byte) protocol.MsgBatchUpdate {
	dom := n.Domains[0]
	mods := []openflow.FlowMod{mod}
	root := merkle.LeafHash(openflow.CanonicalUpdateBytes(id, 0, mods))
	return protocol.MsgBatchUpdate{
		UpdateID:   id,
		Mods:       mods,
		Phase:      0,
		From:       dom.Members[member],
		BatchRoot:  root[:],
		LeafIndex:  0,
		LeafCount:  1,
		ShareIndex: idx,
		Share:      share,
		ReleaseSig: dom.Keys[member].Sign(protocol.BatchReleaseBytes(id, 0, root[:])),
	}
}

// rootShare signs the singleton root of (id, mod) with a member's genuine
// threshold key share.
func rootShare(n *Network, id openflow.MsgID, mod openflow.FlowMod, member int) []byte {
	root := merkle.LeafHash(openflow.CanonicalUpdateBytes(id, 0, []openflow.FlowMod{mod}))
	share := n.Scheme.SignShare(n.Domains[0].Shares[member], protocol.BatchBytes(0, root[:]))
	return n.Scheme.Params.PointBytes(share.Point)
}

func TestForgedUpdateRejectedWithoutQuorum(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	evil := simnet.NodeID("evil-controller")
	n.Net.Register(evil, evilNode{})

	// The attacker crafts an update installing a malicious route and
	// sends it as a singleton batch with garbage root shares.
	target := topology.ToRName(0, 0, 0)
	mod := openflow.FlowMod{Op: openflow.FlowAdd, Switch: target, Rule: openflow.Rule{
		Priority: 99,
		Match:    openflow.Match{Src: openflow.Wildcard, Dst: "attacker-sink"},
		Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "attacker-sink"},
	}}
	id := openflow.MsgID{Origin: "evil", Seq: 1}
	sw := n.Switches[target]
	params := n.Scheme.Params
	junk := params.PointBytes(params.ScalarBaseMul(bigOne()))
	quorum := n.Domains[0].Controllers[0].Quorum()

	// An outsider cannot attest a release at all.
	outsider := singletonUpdate(n, id, mod, 0, 1, junk)
	outsider.From = "evil"
	n.Net.Send(evil, simnet.NodeID(target), outsider, 256)
	// A stolen identity key (but no threshold share) gets junk into the
	// root-share pool, one claimed index at a time, short of the quorum.
	for idx := uint32(1); idx < uint32(quorum); idx++ {
		n.Net.Send(evil, simnet.NodeID(target), singletonUpdate(n, id, mod, 3, idx, junk), 256)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := sw.Lookup("x", "attacker-sink"); ok {
		t.Fatal("switch installed a sub-quorum update")
	}

	// One more junk share reaches the quorum count, but aggregate
	// verification must fail.
	n.Net.Send(evil, simnet.NodeID(target), singletonUpdate(n, id, mod, 3, uint32(quorum), junk), 256)
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := sw.Lookup("x", "attacker-sink"); ok {
		t.Fatal("switch installed an update with forged shares")
	}
	if sw.UpdatesRejected < 2 {
		t.Fatalf("forged updates not counted as rejected (rejected=%d)", sw.UpdatesRejected)
	}
}

// TestCompromisedControllerCannotForgeAlone gives the attacker a REAL key
// share and identity key (an insider) — still below the quorum, so its
// signed-but-lonely update must not be applied.
func TestCompromisedControllerCannotForgeAlone(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	evil := simnet.NodeID("insider")
	n.Net.Register(evil, evilNode{})

	target := topology.ToRName(0, 0, 1)
	mod := openflow.FlowMod{Op: openflow.FlowAdd, Switch: target, Rule: openflow.Rule{
		Priority: 99,
		Match:    openflow.Match{Src: openflow.Wildcard, Dst: "exfil"},
		Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "exfil"},
	}}
	id := openflow.MsgID{Origin: "insider", Seq: 1}
	raw := rootShare(n, id, mod, 3)
	// The insider replays its single valid root share under three
	// different claimed indices; only its own index verifies, one share
	// is below t, and its release attestation counts once.
	for idx := uint32(1); idx <= 3; idx++ {
		n.Net.Send(evil, simnet.NodeID(target), singletonUpdate(n, id, mod, 3, idx, raw), 256)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Switches[target].Lookup("x", "exfil"); ok {
		t.Fatal("one compromised share sufficed to install an update")
	}
}

func TestPacketOutInjectionDropped(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	evil := simnet.NodeID("evil")
	n.Net.Register(evil, evilNode{})
	target := topology.ToRName(0, 0, 0)
	n.Net.Send(evil, simnet.NodeID(target), openflow.PacketOut{
		ID: openflow.MsgID{Origin: "evil", Seq: 1}, Switch: target,
		Src: "a", Dst: "b", Payload: "dos",
	}, 1500)
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Switches[target].UpdatesRejected != 1 {
		t.Fatalf("PACKET_OUT injection not rejected (rejected=%d)",
			n.Switches[target].UpdatesRejected)
	}
}

func TestForgedEventFromUnknownSourceIgnored(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	evilKeys, err := pki.NewKeyPair(rand.Reader, "ghost-switch")
	if err != nil {
		t.Fatal(err)
	}
	// NOT registered in the directory.
	evil := simnet.NodeID("ghost-switch")
	n.Net.Register(evil, evilNode{})
	ev := protocol.Event{
		ID:   openflow.MsgID{Origin: "ghost-switch", Seq: 1},
		Kind: protocol.EventFlowRequest,
		Src:  topology.HostName(0, 0, 0, 0),
		Dst:  topology.HostName(0, 0, 2, 0),
	}
	env := evilKeys.Seal(ev.Encode())
	for _, m := range n.Domains[0].Members {
		n.Net.Send(evil, simnet.NodeID(m), protocol.MsgEvent{Env: env}, 256)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ctl := range n.Domains[0].Controllers {
		if ctl.EventsDelivered != 0 {
			t.Fatal("event from unregistered source was processed")
		}
	}
}

func TestMasqueradingEventRejected(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	// A registered but different identity signs an event claiming to be a
	// switch (the §2.2 masquerading threat).
	evilKeys, err := pki.NewKeyPair(rand.Reader, "evil-member")
	if err != nil {
		t.Fatal(err)
	}
	n.Directory.MustRegister(evilKeys)
	evil := simnet.NodeID("evil-member")
	n.Net.Register(evil, evilNode{})
	ev := protocol.Event{
		ID:   openflow.MsgID{Origin: topology.ToRName(0, 0, 0), Seq: 999},
		Kind: protocol.EventFlowRequest,
		Src:  topology.HostName(0, 0, 0, 0),
		Dst:  topology.HostName(0, 0, 2, 0),
	}
	env := evilKeys.Seal(ev.Encode())
	env.From = pki.Identity(topology.ToRName(0, 0, 0)) // claim switch identity
	for _, m := range n.Domains[0].Members {
		n.Net.Send(evil, simnet.NodeID(m), protocol.MsgEvent{Env: env}, 256)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ctl := range n.Domains[0].Controllers {
		if ctl.EventsDelivered != 0 {
			t.Fatal("masqueraded event was processed")
		}
	}
}

// TestByzantineAggregatorCannotForge runs controller aggregation and makes
// the aggregator Byzantine: it forwards a forged aggregate. The switch
// must reject it, and (separately) honest switch-aggregation still works
// for the same update.
func TestByzantineAggregatorCannotForge(t *testing.T) {
	n := buildSecure(t, controlplane.AggController)
	dom := n.Domains[0]
	aggregator := dom.Members[0]
	target := topology.ToRName(0, 0, 2)

	mod := openflow.FlowMod{Op: openflow.FlowAdd, Switch: target, Rule: openflow.Rule{
		Priority: 99,
		Match:    openflow.Match{Src: openflow.Wildcard, Dst: "forged"},
		Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "forged"},
	}}
	id := openflow.MsgID{Origin: "agg-forge", Seq: 1}
	// The Byzantine aggregator signs with only ITS key share and claims
	// the result is the aggregate.
	canonical := openflow.CanonicalUpdateBytes(id, 0, []openflow.FlowMod{mod})
	lone := n.Scheme.SignShare(dom.Shares[0], canonical)
	n.Net.Send(simnet.NodeID(aggregator), simnet.NodeID(target), protocol.MsgAggUpdate{
		UpdateID: id, Mods: []openflow.FlowMod{mod}, Phase: 0,
		Signature: n.Scheme.Params.PointBytes(lone.Point),
	}, 256)
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Switches[target].Lookup("x", "forged"); ok {
		t.Fatal("switch accepted a single-share 'aggregate'")
	}
	if n.Switches[target].UpdatesRejected == 0 {
		t.Fatal("forged aggregate not rejected")
	}
}

// TestHonestQuorumStillWorksDespiteByzantineShare mixes one corrupted
// root share into an otherwise honest switch-aggregation quorum:
// CombineVerified filters it and the update applies.
func TestHonestQuorumStillWorksDespiteByzantineShare(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	dom := n.Domains[0]
	target := topology.ToRName(0, 0, 0)
	sw := n.Switches[target]

	mod := openflow.FlowMod{Op: openflow.FlowAdd, Switch: target, Rule: openflow.Rule{
		Priority: 10,
		Match:    openflow.Match{Src: openflow.Wildcard, Dst: "legit"},
		Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: topology.EdgeName(0, 0, 0)},
	}}
	id := openflow.MsgID{Origin: "mixed", Seq: 1}

	evil := simnet.NodeID("byz-member")
	n.Net.Register(evil, evilNode{})
	// The Byzantine member's corrupted share arrives first.
	junk := n.Scheme.Params.PointBytes(n.Scheme.Params.ScalarBaseMul(bigOne()))
	n.Net.Send(evil, simnet.NodeID(target), singletonUpdate(n, id, mod, 0, dom.Shares[0].Index, junk), 256)
	// Then the three honest members' shares.
	for i := 1; i <= 3; i++ {
		msg := singletonUpdate(n, id, mod, i, dom.Shares[i].Index, rootShare(n, id, mod, i))
		n.Net.Send(evil, simnet.NodeID(target), msg, 256)
	}
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := sw.Lookup("x", "legit"); !ok {
		t.Fatal("honest quorum failed to install despite Byzantine share")
	}
}

// TestCrashBaselineAcceptsForgedUpdate is the negative control motivating
// Cicero: without quorum authentication, a single malicious controller
// fully controls the data plane.
func TestCrashBaselineAcceptsForgedUpdate(t *testing.T) {
	cfg := topology.DefaultFabricConfig()
	cfg.RacksPerPod = 3
	g, err := topology.BuildSinglePod(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(Config{
		Graph:                g,
		Protocol:             controlplane.ProtoCrash,
		ControllersPerDomain: 4,
		Cost:                 protocol.Calibrated(),
		CryptoReal:           true,
		Seed:                 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	evil := simnet.NodeID("evil")
	n.Net.Register(evil, evilNode{})
	target := topology.ToRName(0, 0, 0)
	mod := openflow.FlowMod{Op: openflow.FlowAdd, Switch: target, Rule: openflow.Rule{
		Priority: 99,
		Match:    openflow.Match{Src: openflow.Wildcard, Dst: "pwned"},
		Action:   openflow.Action{Type: openflow.ActionOutput, NextHop: "pwned"},
	}}
	n.Net.Send(evil, simnet.NodeID(target), protocol.MsgUpdate{
		UpdateID: openflow.MsgID{Origin: "evil", Seq: 1},
		Mods:     []openflow.FlowMod{mod},
	}, 256)
	if _, err := n.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Switches[target].Lookup("x", "pwned"); !ok {
		t.Fatal("negative control failed: crash baseline should accept unauthenticated updates")
	}
}

// TestCiceroSurvivesControllerCrash crashes one of four controllers and
// verifies flows still complete (t = 2 < remaining 3 signers... the
// quorum is 2 of 4; 3 live members still reach it).
func TestCiceroSurvivesControllerCrash(t *testing.T) {
	n := buildSecure(t, controlplane.AggSwitch)
	dom := n.Domains[0]
	// Crash a non-primary, non-bootstrap member.
	victim := dom.Members[3]
	n.Net.Crash(simnet.NodeID(victim))
	dom.Controllers[3].Stop()

	src := topology.HostName(0, 0, 0, 0)
	dst := topology.HostName(0, 0, 2, 0)
	results, err := n.RunFlows([]workload.Flow{{ID: 1, Src: src, Dst: dst, SizeKB: 64, Start: 0}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].SetupDelay == 0 {
		t.Fatalf("flow did not complete under one controller crash: %+v", results)
	}
}

// bigOne is a tiny helper for building junk points.
func bigOne() *big.Int { return big.NewInt(1) }
