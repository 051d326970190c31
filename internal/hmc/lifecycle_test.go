package hmc

import (
	"testing"

	"pageseer/internal/mem"
	"pageseer/internal/obs/ledger"
	"pageseer/internal/obs/pagemap"
)

// TestCommitEventsPrecedeOnComplete pins the order of the one
// swap-lifecycle path: an op's commit and its victim's eviction reach the
// sinks before op.OnComplete runs. A swap started from OnComplete (MemPod's
// burst drain, PageSeer's drainPending) that brings the just-evicted victim
// back must open its records after that eviction. Were the commit events
// emitted after OnComplete, the first op's Evicted(victim) would close the
// second swap's fresh ledger record and mark it Unused.
func TestCommitEventsPrecedeOnComplete(t *testing.T) {
	sim, c := testController()
	NewStatic(c)
	led := ledger.New(mem.PageShift)
	pm := pagemap.New(mem.PageShift, pagemap.DefaultFlapK, pagemap.DefaultFlapWindow)
	c.SetLedger(led)
	c.SetPageMap(pm)

	page, victim := mem.Addr(8<<20)+0x2000, mem.Addr(0x2000) // NVM, DRAM
	back := false
	second := pageSwapOp(victim, page, func() { back = true })
	first := pageSwapOp(victim, page, func() {
		// Bring the first swap's victim straight back in.
		if !c.StartSwap(second, SwapMeta{Page: victim, Victim: page, Trigger: ledger.TrigRegular, Req: sim.Now()}) {
			t.Fatal("StartSwap from OnComplete refused by an idle engine")
		}
	})
	if !c.StartSwap(first, SwapMeta{Page: page, Victim: victim, Trigger: ledger.TrigRegular}) {
		t.Fatal("StartSwap refused by an idle engine")
	}
	sim.Drain(0)
	if !back {
		t.Fatal("the swap started from OnComplete never completed")
	}

	recs := led.Records()
	if len(recs) != 2 {
		t.Fatalf("%d ledger records, want 2", len(recs))
	}
	r1, r2 := recs[0], recs[1]
	if !r1.Committed || r1.Outcome != ledger.OutcomeUnused {
		t.Errorf("record 1 committed=%v outcome=%v, want committed and unused (evicted by record 2)", r1.Committed, r1.Outcome)
	}
	if !r2.Committed || r2.Outcome != ledger.OutcomeOpen {
		t.Errorf("record 2 committed=%v outcome=%v, want committed and still open: the first commit's eviction closed it", r2.Committed, r2.Outcome)
	}
	if r1.CommitCycle > r2.StartCycle {
		t.Errorf("record 2 started at cycle %d, before record 1 committed at %d", r2.StartCycle, r1.CommitCycle)
	}
	if _, ok := led.TriggerOf(uint64(victim)); !ok {
		t.Error("ledger does not hold the returned victim as swapped in")
	}
	if _, ok := led.TriggerOf(uint64(page)); ok {
		t.Error("ledger still holds the evicted page as swapped in")
	}

	rows := map[uint64]pagemap.Row{}
	for _, r := range pm.Rows() {
		rows[r.Page] = r
	}
	for _, want := range []struct {
		addr     mem.Addr
		resident string
		unused   uint64
	}{{victim, "dram", 0}, {page, "nvm", 1}} {
		r, ok := rows[uint64(want.addr)]
		if !ok {
			t.Fatalf("pagemap has no row for %#x", want.addr)
		}
		if r.Resident != want.resident || r.SwapIns != 1 || r.SwapOuts != 1 || r.UnusedIns != want.unused {
			t.Errorf("pagemap row %#x = resident %q ins %d outs %d unused %d, want %q 1 1 %d",
				want.addr, r.Resident, r.SwapIns, r.SwapOuts, r.UnusedIns, want.resident, want.unused)
		}
	}
}
