package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"cicero/internal/audit"
	"cicero/internal/controlplane"
	"cicero/internal/metrics"
	"cicero/internal/protocol"
	"cicero/internal/workload"
)

// tableDigestLines canonicalizes every switch's flow table for comparison
// across runs (rule insertion order may differ; content must not).
func tableDigestLines(t *testing.T, n *Network) []string {
	t.Helper()
	var lines []string
	ids := make([]string, 0, len(n.Switches))
	for id := range n.Switches {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, r := range n.Switches[id].Table().Rules() {
			lines = append(lines, fmt.Sprintf("%s|%d|%s|%s|%d",
				id, r.Priority, r.Match, r.Action, r.Cookie))
		}
	}
	sort.Strings(lines)
	return lines
}

// contentDigests returns each controller's order-insensitive ledger digest.
func contentDigests(n *Network) map[string][32]byte {
	out := make(map[string][32]byte)
	for _, d := range n.Domains {
		for _, ctl := range d.Controllers {
			out[string(ctl.ID())] = audit.ContentDigest(ctl.AuditRecords())
		}
	}
	return out
}

// runBatched assembles a Cicero deployment with the given batch size and
// drives a dense flow trace through it (tight interarrival so the batch
// window actually accumulates more than one event).
func runBatched(t *testing.T, batch, flows int, cryptoReal bool) *Network {
	t.Helper()
	g := smallPod(t)
	n := buildNet(t, Config{
		Graph:      g,
		Protocol:   controlplane.ProtoCicero,
		Cost:       protocol.Calibrated(),
		CryptoReal: cryptoReal,
		Seed:       1,
		BatchSize:  batch,
	})
	trace, err := workload.Generate(g, workload.Config{
		Mix:              workload.HadoopMix(),
		Flows:            flows,
		MeanInterarrival: 200 * time.Microsecond,
		Seed:             42,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	results, err := n.RunFlows(trace, RunOptions{})
	if err != nil {
		t.Fatalf("RunFlows(batch=%d): %v", batch, err)
	}
	if len(results) != flows {
		t.Fatalf("batch=%d completed %d flows, want %d", batch, len(results), flows)
	}
	for _, sw := range n.Switches {
		if sw.UpdatesRejected != 0 {
			t.Errorf("batch=%d: switch %s rejected %d updates in an honest run",
				batch, sw.ID(), sw.UpdatesRejected)
		}
	}
	return n
}

// TestBatchedMatchesUnbatched is the correctness gate of the batching
// layer: a batched run must converge to exactly the same flow tables and
// the same audit-ledger content as the per-update baseline. ChainDigest is
// deliberately not compared — update-record append order depends on ack
// timing, which batching legitimately changes.
func TestBatchedMatchesUnbatched(t *testing.T) {
	ref := runBatched(t, 1, 40, false)
	got := runBatched(t, 8, 40, false)

	refLines := tableDigestLines(t, ref)
	gotLines := tableDigestLines(t, got)
	if len(refLines) == 0 {
		t.Fatal("reference run installed no rules")
	}
	if fmt.Sprint(refLines) != fmt.Sprint(gotLines) {
		t.Fatalf("flow tables diverge: batch=1 has %d rules, batch=8 has %d", len(refLines), len(gotLines))
	}

	refDigests := contentDigests(ref)
	gotDigests := contentDigests(got)
	for id, want := range refDigests {
		if gotDigests[id] != want {
			t.Errorf("controller %s: ledger content digest diverges between batch=1 and batch=8", id)
		}
	}

	var signedBatches uint64
	for _, d := range got.Domains {
		for _, ctl := range d.Controllers {
			signedBatches += ctl.BatchesSigned
		}
	}
	if signedBatches == 0 {
		t.Fatal("batch=8 run signed no batches (batched path never engaged)")
	}
	// A batch of one is a batch: the batch=1 run signs batch roots too,
	// at most one per delivered event (events that plan nothing for this
	// domain sign nothing).
	for _, d := range ref.Domains {
		for _, ctl := range d.Controllers {
			if ctl.BatchesSigned == 0 {
				t.Fatalf("batch=1 controller %s signed no batches", ctl.ID())
			}
			if ctl.BatchesSigned > ctl.EventsDelivered {
				t.Fatalf("batch=1 controller %s signed %d batches for %d delivered events",
					ctl.ID(), ctl.BatchesSigned, ctl.EventsDelivered)
			}
		}
	}
}

// TestBatchedRealCryptoAmortizes runs real BLS end to end and checks the
// whole point of the layer: batched verification performs strictly fewer
// pairing operations than per-update verification, while applying the same
// updates with zero rejections.
func TestBatchedRealCryptoAmortizes(t *testing.T) {
	pairingOps := func() uint64 {
		s := metrics.Crypto.Snapshot()
		return s["pairings"] + s["prepared_pairings"] + s["pairing_products"]
	}

	before := pairingOps()
	ref := runBatched(t, 1, 16, true)
	unbatched := pairingOps() - before

	before = pairingOps()
	got := runBatched(t, 8, 16, true)
	batched := pairingOps() - before

	var refApplied, gotApplied uint64
	for _, sw := range ref.Switches {
		refApplied += sw.UpdatesApplied
	}
	for _, sw := range got.Switches {
		gotApplied += sw.UpdatesApplied
	}
	if refApplied == 0 || refApplied != gotApplied {
		t.Fatalf("applied updates diverge: batch=1 %d, batch=8 %d", refApplied, gotApplied)
	}
	if batched >= unbatched {
		t.Fatalf("batching did not amortize pairings: batch=1 used %d, batch=8 used %d", unbatched, batched)
	}
}
