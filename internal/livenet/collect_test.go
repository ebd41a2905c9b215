//go:build go1.24

package livenet

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"cicero/internal/fabric"
)

// TestClosedFabricCollected closes an in-process fabric that still has a
// 10 s timer and a 10 s injected-delay delivery pending. Neither may keep
// the fabric reachable: after Close it must be garbage at the next GC,
// not when the timers would have fired.
func TestClosedFabricCollected(t *testing.T) {
	ref := func() weak.Pointer[InProc] {
		p := NewInProc(nil)
		idle := fabric.HandlerFunc(func(fabric.NodeID, fabric.Message) {})
		p.Register("a", idle)
		p.Register("b", idle)
		p.After("a", 10*time.Second, func() {})
		p.SetFilter(func(from, to fabric.NodeID, msg fabric.Message, size int) fabric.FaultAction {
			return fabric.FaultAction{Delay: 10 * time.Second}
		})
		p.Send("a", "b", "delayed", 1)
		p.Close()
		return weak.Make(p)
	}()
	for i := 0; i < 10 && ref.Value() != nil; i++ {
		runtime.GC()
	}
	if ref.Value() != nil {
		t.Fatal("closed fabric is still reachable through its pending timers")
	}
}
