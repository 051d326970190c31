package hmc

import (
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/obs/ledger"
)

// TestZeroAllocStartSwap pins the zero-cost-when-off contract of the one
// swap-lifecycle path: with every sink detached, Controller.StartSwap and
// the op's completion (its commit-event branch included) allocate nothing
// once the engine's record pools are warm. The op is reused; one warm-up
// op fills the pools first. Part of the Makefile `allocguard` gate.
func TestZeroAllocStartSwap(t *testing.T) {
	sim, c := testController()
	NewStatic(c)
	sim.Reserve(64 * engine.WheelHorizon) // as sim.Build does: no queue growth mid-run
	done := 0
	op := pageSwapOp(0x2000, mem.Addr(8<<20)+0x2000, func() { done++ })
	meta := SwapMeta{Page: mem.Addr(8<<20) + 0x2000, Victim: 0x2000, Trigger: ledger.TrigRegular}
	swap := func() {
		meta.Req = sim.Now()
		if !c.StartSwap(op, meta) {
			t.Fatal("StartSwap refused by an idle engine")
		}
		sim.Drain(0)
	}
	swap()
	if n := testing.AllocsPerRun(100, swap); n != 0 {
		t.Fatalf("StartSwap and its completion allocate %.1f times per swap with sinks off, want 0", n)
	}
	if done != 102 {
		t.Fatalf("%d swap(s) completed, want 102", done)
	}
}
