package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"cicero/internal/audit"
	"cicero/internal/fabric"
	"cicero/internal/livenet"
	"cicero/internal/topology"
)

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, n := range []int{15, 21, 100, 240, 999, 1000, 1450} {
		ms := make([]float64, n)
		for i := range ms {
			ms[n-1-i] = float64(i + 1) // reversed: summarizeLatency must sort
		}
		s := summarizeLatency(ms, 0)
		if s.n != n {
			t.Fatalf("n=%d: sample count %d", n, s.n)
		}
		if n <= 2*tailBeyond {
			if s.tailP != 0.5 || s.tail != s.p50 {
				t.Errorf("n=%d: too few samples should report the median, got p%g=%g", n, 100*s.tailP, s.tail)
			}
			continue
		}
		rank := n - tailBeyond
		if s.tail != float64(rank) || s.tailP != float64(rank)/float64(n) {
			t.Errorf("n=%d: tail p%g=%g, want p%g=%d", n, 100*s.tailP, s.tail, 100*float64(rank)/float64(n), rank)
		}
		beyond := 0
		for _, v := range ms {
			if v > s.tail {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", n, beyond, tailBeyond)
		}
	}
	if got := summarizeLatency([]float64{1, 2, 3, 4}, 0).p50; got != 2 {
		t.Errorf("nearest-rank median of 1..4 = %g, want 2", got)
	}
}

func TestTimedOutFlowIsFailedAndBeyondEveryPercentile(t *testing.T) {
	start := time.Now()
	p := &phase{}
	for i := 0; i < 100; i++ {
		p.flows = append(p.flows, &flowRec{arrived: start, done: start.Add(time.Duration(i+1) * time.Millisecond)})
	}
	for i := 0; i < 15; i++ {
		p.flows = append(p.flows, &flowRec{arrived: start}) // never completed
	}
	if got := p.failed(); got != 15 {
		t.Fatalf("failed() = %d, want 15", got)
	}
	lat := p.latenciesMs()
	if len(lat) != 100 {
		t.Fatalf("%d latencies, want the 100 completed flows", len(lat))
	}
	s := summarizeLatency(lat, p.failed())
	if s.n != 115 {
		t.Fatalf("sample count %d, want 115 (failed flows included)", s.n)
	}
	if !math.IsInf(s.tail, 1) {
		t.Errorf("with 15 failed of 115 the tail must fall on a failed flow, got %g", s.tail)
	}
	if s.p50 != 58 {
		t.Errorf("median %g, want 58: failed flows rank above every completed one", s.p50)
	}
	if got := finite(s.tail, 30000); got != 30000 {
		t.Errorf("an infinite tail is reported as the flow timeout, got %g", got)
	}
	// Fewer failures than tailBeyond: the tail is a completed flow, but
	// the failures still push it up.
	s = summarizeLatency(lat, 3)
	if want := 100.0 - (tailBeyond - 3); s.tail != want {
		t.Errorf("tail with 3 failed = %g, want %g", s.tail, want)
	}
}

func TestWarmUpPairTakesTheLongestPathOnEverySeed(t *testing.T) {
	g, err := benchTopology()
	if err != nil {
		t.Fatal(err)
	}
	hops := func(f *flowRec) int { return len(g.SwitchesOnPath(g.ShortestPath(f.src, f.dst))) }
	longest := 0
	for _, src := range g.NodesOfKind(topology.KindHost) {
		for _, dst := range g.NodesOfKind(topology.KindHost) {
			if src.ID != dst.ID {
				longest = max(longest, len(g.SwitchesOnPath(g.ShortestPath(src.ID, dst.ID))))
			}
		}
		break // every rack sees the same shapes
	}
	for seed := int64(1); seed <= 20; seed++ {
		pool, err := newPairPool(g, seed)
		if err != nil {
			t.Fatal(err)
		}
		warm, _ := pool.draw()
		if n := hops(warm); n != longest {
			t.Errorf("seed %d: warm-up pair %s->%s crosses %d switches, want %d", seed, warm.src, warm.dst, n, longest)
		}
	}
}

func TestOverheadAndDriftCompareTracedWithBothUntracedPhases(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	mk := func(applied uint64, cpu time.Duration, msgs uint64) *phase {
		p := &phase{}
		p.start.crypto, p.end.crypto = cryptoCount{}, cryptoCount{"pairings": applied}
		p.end.counters.applied, p.end.cpu = applied, cpu
		p.end.stats.Delivered, p.end.stats.Bytes = msgs, 100*msgs
		return p
	}
	// Untraced: 10 ms/update before the traced phase, 14 ms after; the
	// traced phase's 13.2 ms is 10% above their pooled 12 ms.
	// The traced phase sends 5% more messages per update.
	overhead, drift := compareTallies(tallyOf(mk(100, ms(1000), 2000), mk(100, ms(1400), 2000)),
		tallyOf(mk(200, ms(2640), 4200)))
	if math.Abs(overhead-0.1) > 1e-9 || math.Abs(drift-0.05) > 1e-9 {
		t.Errorf("overhead %g drift %g, want 0.1 and 0.05", overhead, drift)
	}
}

func TestPairPoolDealsDistinctPairsAtTheirIngress(t *testing.T) {
	g, err := benchTopology()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := newPairPool(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]string]bool)
	for i := 0; i < 2000; i++ {
		f, err := pool.draw()
		if err != nil {
			t.Fatal(err)
		}
		key := [2]string{f.src, f.dst}
		if seen[key] || f.src == f.dst {
			t.Fatalf("draw %d repeats pair %v", i, key)
		}
		seen[key] = true
		if i < 100 {
			sws := g.SwitchesOnPath(g.ShortestPath(f.src, f.dst))
			if len(sws) == 0 || sws[0] != f.ingress {
				t.Fatalf("pair %v: ingress %s, path switches %v", key, f.ingress, sws)
			}
		}
	}
}

// fakeFabric records sends and lets the test deliver them by hand.
type fakeFabric struct {
	fabric.Fabric // nil: only the methods below are used
	handlers      map[fabric.NodeID]fabric.Handler
	refuse        string // message kind SendErr refuses
	onSend        func(from, to fabric.NodeID, msg fabric.Message)
}

func (f *fakeFabric) Register(id fabric.NodeID, h fabric.Handler) { f.handlers[id] = h }
func (f *fakeFabric) Resilience() livenet.ResilienceStats         { return livenet.ResilienceStats{} }
func (f *fakeFabric) Close()                                      {}
func (f *fakeFabric) SendErr(from, to fabric.NodeID, msg fabric.Message, size int) error {
	if kindOf(msg) == f.refuse {
		return errors.New("refused")
	}
	if f.onSend != nil {
		f.onSend(from, to, msg)
	}
	return nil
}

type (
	msgA    struct{}
	msgB    struct{}
	refused struct{}
)

func TestFIFOWaitMatching(t *testing.T) {
	inner := &fakeFabric{handlers: map[fabric.NodeID]fabric.Handler{}, refuse: "refused"}
	tr := newTracer()
	fab := tr.wrapFabric(inner)
	var got []string
	fab.Register("b", fabric.HandlerFunc(func(from fabric.NodeID, msg fabric.Message) {
		got = append(got, kindOf(msg))
	}))
	deliver := func(from fabric.NodeID, msg fabric.Message) { inner.handlers["b"].HandleMessage(from, msg) }

	fab.Send("a", "b", msgA{}, 0)
	fab.Send("a", "b", refused{}, 0) // the backend refuses: no stamp may remain
	fab.Send("a", "b", msgB{}, 0)
	fab.Send("c", "b", msgA{}, 0)
	time.Sleep(20 * time.Millisecond)
	deliver("c", msgA{})
	deliver("a", msgA{})
	deliver("a", msgB{})
	deliver("a", msgB{}) // never sent: unmatched

	// A handler that starts before Send returns waited for nothing.
	inner.onSend = func(from, to fabric.NodeID, msg fabric.Message) { deliver(from, msg) }
	fab.Send("a", "b", msgA{}, 0)

	nt := tr.nodes["b"]
	if len(nt.waits) != 4 || nt.unmatched != 1 {
		t.Fatalf("waits %v unmatched %d, want 4 matched and 1 unmatched", nt.waits, nt.unmatched)
	}
	for i, w := range nt.waits[:3] {
		if w < int64(20*time.Millisecond) {
			t.Errorf("wait %d = %v, want at least the 20ms the message sat unhandled", i, time.Duration(w))
		}
	}
	if nt.waits[3] != 0 {
		t.Errorf("synchronous delivery waited %v, want 0", time.Duration(nt.waits[3]))
	}
	if nt.kinds["msgA"].n != 3 || nt.kinds["msgB"].n != 2 {
		t.Errorf("handler counts %+v, want msgA 3 and msgB 2", nt.kinds)
	}
	if strings.Join(got, ",") != "msgA,msgA,msgB,msgB,msgA" {
		t.Errorf("wrapped handler saw %v", got)
	}
}

// smallRun drives five flows one at a time through a fresh in-process
// deployment and lets all traffic settle.
func smallRun(t *testing.T, traced bool) (*deployment, digests) {
	t.Helper()
	g, err := benchTopology()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := newPairPool(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, lg, _, _, err := setUp(workloads["closed-b1"], g, pool, 7, traced, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)
	settle := func() {
		if err := d.awaitQuiescence(quiesceTimeout); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(quiesceTimeout); ; time.Sleep(20 * time.Millisecond) {
			a := d.inner.Stats()
			time.Sleep(50 * time.Millisecond)
			if b := d.inner.Stats(); a == b && b.Sent == b.Delivered {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("traffic did not settle")
			}
		}
	}
	settle()
	for i := 0; i < 5; i++ {
		f, err := pool.draw()
		if err != nil {
			t.Fatal(err)
		}
		lg.inject(f, nil)
		lg.awaitCompletion(flowTimeout)
		if f.done.IsZero() {
			t.Fatalf("flow %d did not complete", i)
		}
		settle()
	}
	dg, err := d.liveDigests()
	if err != nil {
		t.Fatal(err)
	}
	return d, dg
}

func TestTracingIsTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two live deployments")
	}
	plain, plainDigests := smallRun(t, false)
	traced, tracedDigests := smallRun(t, true)
	if plainDigests.table != tracedDigests.table {
		t.Errorf("table digests differ: untraced %.12s traced %.12s", plainDigests.table, tracedDigests.table)
	}
	for id, dg := range plainDigests.ledgers {
		if tracedDigests.ledgers[id] != dg {
			t.Errorf("controller %s: ledger digests differ", id)
		}
	}
	ps, ts := plain.inner.Stats(), traced.inner.Stats()
	if ps != ts {
		t.Errorf("fabric counts differ:\nuntraced %+v\ntraced   %+v", ps, ts)
	}
	snap, err := traced.tr.snapshot(traced, nil)
	if err != nil {
		t.Fatal(err)
	}
	var handled, waits, unmatched int64
	for _, n := range snap.nodes {
		for _, k := range n.kinds {
			handled += k.n
		}
		waits += int64(n.nWaits)
		unmatched += n.unmatched
	}
	if uint64(handled) != ts.Delivered || waits != handled || unmatched != 0 {
		t.Errorf("tracer saw %d handled, %d waits, %d unmatched; fabric delivered %d", handled, waits, unmatched, ts.Delivered)
	}
	// The in-process backend counts encoded bytes once per send.
	if uint64(snap.encBytes) != ts.Bytes || snap.encCalls != int64(ts.Sent) {
		t.Errorf("codec encoded %d bytes in %d calls; fabric counted %d bytes in %d sends",
			snap.encBytes, snap.encCalls, ts.Bytes, ts.Sent)
	}
}

func TestFlowRecordsKeepOnlyFlowEventsAndTheirUpdates(t *testing.T) {
	switches := map[string]bool{"d0-p0-tor1": true, "d0-p0-edge0": true}
	var ledger audit.Ledger
	ledger.Append(audit.KindEvent, "d0-p0-tor1#3", []byte("flow event"))
	ledger.Append(audit.KindEvent, "dom0/ctl/1/meta#1", []byte("policy event with a wall-clock stamp"))
	ledger.Append(audit.KindUpdate, "d0-p0-tor1#3/d0#0", []byte("update of the flow"))
	kept := flowRecords(ledger.Records(), switches)
	if len(kept) != 2 || kept[0].Subject != "d0-p0-tor1#3" || kept[1].Subject != "d0-p0-tor1#3/d0#0" {
		t.Fatalf("kept %+v, want the flow event and its update", kept)
	}
	var other audit.Ledger
	other.Append(audit.KindEvent, "dom0/ctl/1/meta#1", []byte("a different policy stamp"))
	other.Append(audit.KindUpdate, "d0-p0-tor1#3/d0#0", []byte("update of the flow"))
	other.Append(audit.KindEvent, "d0-p0-tor1#3", []byte("flow event"))
	if ledgerDigest(ledger.Records(), switches) != ledgerDigest(other.Records(), switches) {
		t.Error("ledgers with the same flow records in another order and other policy records must digest alike")
	}
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func TestRunsEmitBenchmarkMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		for trace, want := range [][]metricSpec{bf.EndToEnd, bf.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "5", "--seconds", "2", "--trace", []string{"0", "1"}[trace]}
			if code := run(args, "..", &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not the result: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: %d metrics, BENCHMARK.json lists %d", args, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%v: metric %s = %+v, want unit %s", args, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "closed-b1", "--trace", "2"},
		{"--workload", "closed-b1", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, "..", &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
