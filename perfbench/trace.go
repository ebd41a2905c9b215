package main

// The outside-in tracer. It wraps the two seams the live backends
// expose — fabric.Fabric (Register/Send) and livenet.Codec
// (Encode/Decode) — and records, without touching the program:
//
//   - per node and message kind, how many messages the handler ran and
//     for how long (wall time, preemption included);
//   - per message, the wait from Send's return to its handler's start,
//     matched FIFO per sender→receiver pair (valid while no fault is
//     injected: both backends deliver one pair's messages in send order);
//   - codec calls, time and encoded bytes.
//
// A wrapped deployment behaves exactly as an unwrapped one: Send calls
// the backend's SendErr, which is what the backends' own Send does.

import (
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"cicero/internal/fabric"
	"cicero/internal/livenet"
)

// sendErrer is the typed-verdict send both live backends offer.
type sendErrer interface {
	SendErr(from, to fabric.NodeID, msg fabric.Message, size int) error
}

// tracer collects one deployment's trace.
type tracer struct {
	start time.Time
	links sync.Map // [2]fabric.NodeID -> *fifo

	mu    sync.Mutex
	nodes map[fabric.NodeID]*nodeTrace

	enc, dec codecCounters
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), nodes: make(map[fabric.NodeID]*nodeTrace)}
}

// since is the monotonic time since the tracer started, in nanoseconds
// (at least 1, so that 0 can mean "not yet").
func (t *tracer) since() int64 { return int64(time.Since(t.start)) + 1 }

// stamp is one sent message awaiting its handler.
type stamp struct {
	kind string
	// ret is when Send returned (tracer.since), 0 while Send runs.
	ret atomic.Int64
}

// fifo holds one sender→receiver pair's unhandled stamps in send order.
type fifo struct {
	mu sync.Mutex
	q  []*stamp
}

func (f *fifo) push(s *stamp) {
	f.mu.Lock()
	f.q = append(f.q, s)
	f.mu.Unlock()
}

func (f *fifo) pop() *stamp {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.q) == 0 {
		return nil
	}
	s := f.q[0]
	f.q[0] = nil
	f.q = f.q[1:]
	return s
}

// dropLast removes s if it is still the newest stamp: a send the backend
// refused is never handled. Only the sender's goroutine pushes to a
// pair, so nothing can have been pushed after s.
func (f *fifo) dropLast(s *stamp) {
	f.mu.Lock()
	if n := len(f.q); n > 0 && f.q[n-1] == s {
		f.q[n-1] = nil
		f.q = f.q[:n-1]
	}
	f.mu.Unlock()
}

func (t *tracer) link(from, to fabric.NodeID) *fifo {
	key := [2]fabric.NodeID{from, to}
	if f, ok := t.links.Load(key); ok {
		return f.(*fifo)
	}
	f, _ := t.links.LoadOrStore(key, &fifo{})
	return f.(*fifo)
}

// kindOf names a message by its Go type (MsgUpdate, MsgBFT, ...).
func kindOf(msg fabric.Message) string {
	if msg == nil {
		return "nil"
	}
	return reflect.TypeOf(msg).Name()
}

// kindStat accumulates one message kind's handler runs.
type kindStat struct {
	n  int64
	ns int64
}

// nodeTrace is one node's record. Only the node's own goroutine writes
// it; readers go through Invoke.
type nodeTrace struct {
	kinds map[string]kindStat
	// waits holds every matched wait in nanoseconds, in handling order.
	waits     []int64
	unmatched int64
}

// tracedFabric wraps a live backend.
type tracedFabric struct {
	fabric.Fabric
	send sendErrer
	t    *tracer
}

// wrapFabric returns inner with registration and sends traced.
func (t *tracer) wrapFabric(inner liveFabric) fabric.Fabric {
	return &tracedFabric{Fabric: inner, send: inner, t: t}
}

// Register installs a timing wrapper around the node's handler.
func (f *tracedFabric) Register(id fabric.NodeID, h fabric.Handler) {
	f.t.mu.Lock()
	nt, ok := f.t.nodes[id]
	if !ok {
		nt = &nodeTrace{kinds: make(map[string]kindStat)}
		f.t.nodes[id] = nt
	}
	f.t.mu.Unlock()
	f.Fabric.Register(id, &tracedHandler{t: f.t, id: id, h: h, nt: nt})
}

// Send stamps the message into its pair's FIFO before handing it to the
// backend (the receiver may run before Send returns) and records the
// return time after.
func (f *tracedFabric) Send(from, to fabric.NodeID, msg fabric.Message, size int) {
	s := &stamp{kind: kindOf(msg)}
	q := f.t.link(from, to)
	q.push(s)
	if err := f.send.SendErr(from, to, msg, size); err != nil {
		q.dropLast(s)
		return
	}
	s.ret.Store(f.t.since())
}

// tracedHandler times one node's message handling.
type tracedHandler struct {
	t  *tracer
	id fabric.NodeID
	h  fabric.Handler
	nt *nodeTrace
}

func (th *tracedHandler) HandleMessage(from fabric.NodeID, msg fabric.Message) {
	begin := th.t.since()
	kind := kindOf(msg)
	if s := th.t.link(from, th.id).pop(); s == nil || s.kind != kind {
		th.nt.unmatched++
	} else {
		wait := int64(0)
		// A zero return time means the handler started before Send
		// returned: the message waited for nothing.
		if ret := s.ret.Load(); ret != 0 && begin > ret {
			wait = begin - ret
		}
		th.nt.waits = append(th.nt.waits, wait)
	}
	th.h.HandleMessage(from, msg)
	ks := th.nt.kinds[kind]
	ks.n++
	ks.ns += th.t.since() - begin
	th.nt.kinds[kind] = ks
}

// codecCounters accumulates one direction of the codec.
type codecCounters struct {
	calls, ns, bytes atomic.Int64
}

func (c *codecCounters) add(start time.Time, n int) {
	c.ns.Add(int64(time.Since(start)))
	c.calls.Add(1)
	c.bytes.Add(int64(n))
}

// tracedCodec wraps the wire codec.
type tracedCodec struct {
	inner livenet.Codec
	t     *tracer
}

func (t *tracer) wrapCodec(inner livenet.Codec) livenet.Codec {
	return &tracedCodec{inner: inner, t: t}
}

func (c *tracedCodec) Encode(msg fabric.Message) ([]byte, error) {
	start := time.Now()
	b, err := c.inner.Encode(msg)
	c.t.enc.add(start, len(b))
	return b, err
}

func (c *tracedCodec) Decode(data []byte) (fabric.Message, error) {
	start := time.Now()
	m, err := c.inner.Decode(data)
	c.t.dec.add(start, len(data))
	return m, err
}

// nodeSnap is a copy of one node's record.
type nodeSnap struct {
	kinds     map[string]kindStat
	nWaits    int
	waits     []int64 // the waits recorded after the snapshot it was diffed from
	unmatched int64
}

// traceSnap is a consistent-enough copy of the whole trace: each node is
// read in its own serial context.
type traceSnap struct {
	nodes           map[fabric.NodeID]nodeSnap
	encCalls, encNS int64
	encBytes        int64
	decNS           int64
}

// snapshot reads every node's record through Invoke. Waits recorded
// after prev (nil: from the start) are copied out.
func (t *tracer) snapshot(d *deployment, prev *traceSnap) (*traceSnap, error) {
	t.mu.Lock()
	ids := make([]string, 0, len(t.nodes))
	nodes := make(map[string]*nodeTrace, len(t.nodes))
	for id, nt := range t.nodes {
		ids = append(ids, string(id))
		nodes[string(id)] = nt
	}
	t.mu.Unlock()
	snap := &traceSnap{nodes: make(map[fabric.NodeID]nodeSnap, len(ids))}
	var mu sync.Mutex
	err := d.invokeAll(ids, func(id string) {
		nt := nodes[id]
		from := 0
		if prev != nil {
			from = prev.nodes[fabric.NodeID(id)].nWaits
		}
		s := nodeSnap{
			kinds:     make(map[string]kindStat, len(nt.kinds)),
			nWaits:    len(nt.waits),
			waits:     append([]int64(nil), nt.waits[from:]...),
			unmatched: nt.unmatched,
		}
		for k, v := range nt.kinds {
			s.kinds[k] = v
		}
		mu.Lock()
		snap.nodes[fabric.NodeID(id)] = s
		mu.Unlock()
	})
	snap.encCalls, snap.encNS, snap.encBytes = t.enc.calls.Load(), t.enc.ns.Load(), t.enc.bytes.Load()
	snap.decNS = t.dec.ns.Load()
	return snap, err
}
