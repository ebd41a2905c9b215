package livenet

import "cicero/internal/fabric"

// InProc is the in-process live backend: messages hop between mailbox
// goroutines directly, with no real wire. It is the fastest way to run
// the protocol as a genuinely concurrent system (every node on its own
// goroutine, wall-clock timers) and is what the -race live smoke tests
// exercise.
type InProc struct {
	base
	codec Codec
}

var (
	_ fabric.Fabric        = (*InProc)(nil)
	_ fabric.FaultInjector = (*InProc)(nil)
)

// NewInProc builds an in-process fabric. A non-nil codec puts the backend
// in strict mode: every message is encoded and re-decoded in flight, so
// anything that would not survive a real wire fails here first, in the
// cheap backend. A nil codec passes messages by value.
func NewInProc(codec Codec) *InProc {
	return &InProc{base: newBase(), codec: codec}
}

// Send delivers msg to the destination mailbox, subject to the datagram
// drop rules and the chaos fault filter (fire-and-forget form).
func (p *InProc) Send(from, to fabric.NodeID, msg fabric.Message, size int) {
	_ = p.SendErr(from, to, msg, size)
}

// SendErr is Send with a typed verdict: it fails fast (never blocks) with
// ErrNodeCrashed, ErrPartitioned, ErrUnknownNode, ErrFabricClosed,
// ErrInjectedDrop, or ErrEncode when the message will not be delivered.
func (p *InProc) SendErr(from, to fabric.NodeID, msg fabric.Message, size int) error {
	n, err := p.admit(from, to)
	if err != nil {
		return err
	}
	msg, copies, delay, err := p.inject(from, to, msg, size)
	if err != nil {
		return err
	}
	if p.codec != nil {
		data, err := p.codec.Encode(msg)
		if err != nil {
			p.st.droppedUnknown.Add(1)
			return ErrEncode
		}
		decoded, err := p.codec.Decode(data)
		if err != nil {
			p.st.droppedUnknown.Add(1)
			return ErrEncode
		}
		msg = decoded
		p.st.bytes.Add(uint64(copies) * uint64(len(data)))
	} else {
		p.st.bytes.Add(uint64(copies) * uint64(size))
	}
	deliver := msg
	for i := 0; i < copies; i++ {
		if delay > 0 {
			// An injected delay re-checks crash state at delivery time,
			// like simnet: the destination may have crashed meanwhile.
			p.timers.after(delay, func() {
				if p.Crashed(to) {
					p.st.droppedCrash.Add(1)
					return
				}
				n.enqueue(func() {
					p.st.delivered.Add(1)
					n.handler().HandleMessage(from, deliver)
				})
			})
			continue
		}
		n.enqueue(func() {
			p.st.delivered.Add(1)
			n.handler().HandleMessage(from, deliver)
		})
	}
	return nil
}

// Close shuts down every mailbox goroutine. Sends after Close drop.
func (p *InProc) Close() { p.closeNodes() }
