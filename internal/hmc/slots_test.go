package hmc_test

import (
	"testing"

	"pageseer/internal/cache"
	"pageseer/internal/cameo"
	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/mempod"
	"pageseer/internal/memsim"
	"pageseer/internal/pom"
)

// slotScheme is one SlotRemap-based baseline under test: build installs it
// on a fresh controller, unit is its swap granularity, and heat issues the
// demand that makes it swap every unit in addrs into DRAM, returning with
// those swaps started but not finished.
type slotScheme struct {
	name  string
	unit  mem.Addr
	build func(ctl *hmc.Controller)
	heat  func(sim *engine.Sim, ctl *hmc.Controller, addrs []mem.Addr)
}

func demand(ctl *hmc.Controller, a mem.Addr) { ctl.Access(a, false, cache.Meta{PID: 1}, nil) }

var slotSchemes = []slotScheme{
	{
		name: "PoM", unit: pom.SegmentBytes,
		build: func(ctl *hmc.Controller) {
			cfg := pom.DefaultConfig()
			cfg.SRCEntries, cfg.RemapTableBytes, cfg.CounterDecayInterval = 128, 8<<10, 0
			pom.New(ctl, cfg)
		},
		// K accesses to a slow segment swap it on the K-th.
		heat: func(_ *engine.Sim, ctl *hmc.Controller, addrs []mem.Addr) {
			for _, a := range addrs {
				for i := 0; i < int(pom.DefaultConfig().K); i++ {
					demand(ctl, a)
				}
			}
		},
	},
	{
		name: "MemPod", unit: mempod.SegmentBytes,
		build: func(ctl *hmc.Controller) {
			cfg := mempod.DefaultConfig()
			cfg.RemapEntries, cfg.RemapTableBytes, cfg.IntervalCycles = 128, 8<<10, 20_000
			mempod.New(ctl, cfg)
		},
		// Segments seen twice in an interval migrate when the next access
		// crosses its boundary. (MemPod starts its interval clock at the
		// first access after cycle 0.)
		heat: func(sim *engine.Sim, ctl *hmc.Controller, addrs []mem.Addr) {
			sim.RunUntil(sim.Now() + 1)
			for _, a := range addrs {
				demand(ctl, a)
				demand(ctl, a)
			}
			sim.RunUntil(sim.Now() + 20_000)
			demand(ctl, addrs[0])
		},
	},
	{
		name: "CAMEO", unit: cameo.BlockBytes,
		build: func(ctl *hmc.Controller) {
			cfg := cameo.DefaultConfig()
			cfg.RemapEntries, cfg.RemapTableBytes = 256, 8<<10
			cameo.New(ctl, cfg)
		},
		// Every access to a slow block swaps it.
		heat: func(_ *engine.Sim, ctl *hmc.Controller, addrs []mem.Addr) {
			for _, a := range addrs {
				demand(ctl, a)
			}
		},
	},
}

func slotRig(s slotScheme) (*engine.Sim, *hmc.Controller) {
	sim := engine.New()
	osm := mem.NewOS(mem.Map{DRAMBytes: 2 << 20, NVMBytes: 16 << 20}, 16)
	ctl := hmc.NewController(sim, osm, memsim.DRAMConfig(), memsim.NVMConfig(), hmc.DefaultSwapEngineConfig())
	s.build(ctl)
	return sim, ctl
}

// TestSlotRemapFreezePage pins the DMA freeze protocol every SlotRemap
// scheme shares: a freeze that finds swaps of the page in flight completes
// exactly once, after all of them commit — also when the page's units are
// in two different swaps — and a frozen page starts no new swap until it is
// unfrozen.
func TestSlotRemapFreezePage(t *testing.T) {
	for _, s := range slotSchemes {
		t.Run(s.name+"/in-flight", func(t *testing.T) { freezeInFlight(t, s, 1) })
		t.Run(s.name+"/two-swaps", func(t *testing.T) { freezeInFlight(t, s, 2) })
		t.Run(s.name+"/blocks-swaps", func(t *testing.T) { freezeBlocksSwaps(t, s) })
	}
}

// freezeInFlight swaps the first units of one NVM page, freezes the page
// while the swaps run, and checks done runs once, after every commit.
func freezeInFlight(t *testing.T, s slotScheme, units int) {
	sim, ctl := slotRig(s)
	page := mem.PageOf(mem.Addr(ctl.Layout.DRAMBytes)) + 100
	addrs := make([]mem.Addr, units)
	for i := range addrs {
		addrs[i] = page.Addr() + mem.Addr(i)*s.unit
	}
	s.heat(sim, ctl, addrs)
	if got := ctl.Engine.Busy(); got != units {
		t.Fatalf("%d swap(s) in flight, want %d", got, units)
	}
	calls := 0
	ctl.BeginDMA(page, func() {
		calls++
		if n := ctl.Engine.Busy(); n != 0 {
			t.Errorf("freeze completed with %d swap(s) still running", n)
		}
		for _, a := range addrs {
			if !ctl.Layout.IsDRAM(ctl.Manager().TranslateLine(a)) {
				t.Errorf("freeze completed before %#x's swap committed", uint64(a))
			}
		}
	})
	if calls != 0 {
		t.Fatal("freeze completed while its swaps were in flight")
	}
	sim.Drain(0)
	if calls != 1 {
		t.Fatalf("freeze done called %d times, want 1", calls)
	}
	ctl.EndDMA(page)
	if err := ctl.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// freezeBlocksSwaps: demand that would swap a unit of a frozen page starts
// nothing; after EndDMA the same demand swaps it.
func freezeBlocksSwaps(t *testing.T, s slotScheme) {
	sim, ctl := slotRig(s)
	page := mem.PageOf(mem.Addr(ctl.Layout.DRAMBytes)) + 100
	addrs := []mem.Addr{page.Addr()}
	calls := 0
	ctl.BeginDMA(page, func() { calls++ })
	if calls != 1 {
		t.Fatalf("idle freeze done called %d times, want 1", calls)
	}
	s.heat(sim, ctl, addrs)
	sim.Drain(0)
	if n := ctl.Engine.Stats().OpsStarted; n != 0 {
		t.Fatalf("%d swap(s) started on a frozen page", n)
	}
	ctl.EndDMA(page)
	s.heat(sim, ctl, addrs)
	sim.Drain(0)
	if n := ctl.Engine.Stats().OpsStarted; n != 1 {
		t.Fatalf("%d swap(s) started after unfreezing, want 1", n)
	}
	if !ctl.Layout.IsDRAM(ctl.Manager().TranslateLine(addrs[0])) {
		t.Fatal("unit not in DRAM after its swap")
	}
	if err := ctl.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
