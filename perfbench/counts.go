package main

import (
	"pageseer/internal/cache"
	"pageseer/internal/core"
	"pageseer/internal/memsim"
	"pageseer/internal/sim"
)

// addCounts records one run's per-layer work counts and ratios. Controller,
// swap engine, memory, MMU, metadata-cache and PageSeer counts come from
// Results, which sums them over every sampled window; the cache levels and
// the correlator are read from their Stats() after Run, which in sampled mode
// covers the last detailed window. PageSeer's counts carry no suffix; the
// baselines' carry ".pom" and ".mempod" and leave out what PageSeer alone has;
// the baselines' own manager counters are named after the scheme.
func addCounts(m metrics, scheme sim.Scheme, sys *sim.System, r sim.Results) {
	sfx := ""
	if scheme != sim.SchemePageSeer {
		sfx = "." + string(scheme)
	}
	set := func(name string, v float64, unit string) { m.set(name+sfx, v, unit) }

	set("engine.events", float64(sys.Sim.Fired()), "count")
	memsimCounts(set, "dram", r.DRAM)
	memsimCounts(set, "nvm", r.NVM)
	set("hmc.metacache.accesses", float64(r.RemapCache.Hits+r.RemapCache.Misses), "count")
	set("hmc.metacache.hit_rate", ratio(r.RemapCache.Hits, r.RemapCache.Hits+r.RemapCache.Misses), "fraction")
	set("hmc.swap.ops_completed", float64(r.Swap.OpsCompleted), "count")
	set("hmc.swap.ops_rejected", float64(r.Swap.OpsRejected), "count")
	set("hmc.swap.avg_op_cycles", ratio(r.Swap.OpCycles, r.Swap.OpsCompleted), "cycles")

	switch scheme {
	case sim.SchemePoM:
		st := sys.PoM.Stats()
		m.set("pom.swaps", float64(st.Swaps), "count")
		m.set("pom.declined", float64(st.SwapsDeclined+st.SwapsBlocked), "count")
		return
	case sim.SchemeMemPod:
		st := sys.MemPod.Stats()
		m.set("mempod.migrations", float64(st.Migrations), "count")
		m.set("mempod.dropped", float64(st.MigrationsDropped), "count")
		return
	}

	var l1, l2 cache.Stats
	for i, c := range sys.Cores {
		l1.Add(c.L1().Stats())
		l2.Add(sys.L2s[i].Stats())
	}
	l3 := sys.L3.Stats()
	cacheCounts(set, "l1", l1)
	cacheCounts(set, "l2", l2)
	cacheCounts(set, "l3", l3)

	mm := r.MMU
	set("mmu.tlb.l1_hit_rate", ratio(mm.L1Hits, mm.L1Hits+mm.L1Misses), "fraction")
	set("mmu.tlb.l2_hit_rate", ratio(mm.L2Hits, mm.L2Hits+mm.L2Misses), "fraction")
	set("mmu.walks", float64(mm.Walks), "count")
	set("mmu.hints", float64(mm.Hints), "count")

	ct := r.Ctl
	set("hmc.controller.demand", float64(ct.Demand), "count")
	set("hmc.controller.served_dram_share", ratio(ct.ServedDRAM, ct.ServedDRAM+ct.ServedNVM+ct.ServedBuf), "fraction")
	set("hmc.controller.mmu_driver_hit_rate", r.MMUDriverHitRate(), "fraction")
	set("hmc.metacache.wait_cycles_per_miss", ratio(r.RemapCache.WaitCycles, r.RemapCache.Misses), "cycles")
	set("hmc.pctc.accesses", float64(r.PCTc.Hits+r.PCTc.Misses), "count")
	set("hmc.pctc.hit_rate", ratio(r.PCTc.Hits, r.PCTc.Hits+r.PCTc.Misses), "fraction")
	set("hmc.swap.lines_moved", float64(r.Swap.LinesRead+r.Swap.LinesWritten), "count")
	set("hmc.swap.buf_hits", float64(r.Swap.BufHits), "count")

	ps := r.PS
	set("core.swaps.mmu", float64(ps.SwapsCompleted[core.SwapPrefetchMMU]), "count")
	set("core.swaps.pct", float64(ps.SwapsCompleted[core.SwapPrefetchPCT]), "count")
	set("core.swaps.regular", float64(ps.SwapsCompleted[core.SwapRegular]), "count")
	set("core.declined.bw", float64(ps.DeclinedBW), "count")
	set("core.declined.no_victim", float64(ps.DeclinedNoVictim), "count")
	set("core.declined.queue", float64(ps.DeclinedQueue), "count")
	set("core.hints_received", float64(ps.HintsReceived), "count")
	set("core.prefetch_accuracy", ratio(ps.PrefetchAccurate, ps.PrefetchTracked), "fraction")
	cs := sys.PageSeer.Correlator().Stats()
	set("core.correlator.invocations", float64(cs.Invocations), "count")
	set("core.correlator.writebacks", float64(cs.Writebacks), "count")
}

func memsimCounts(set func(string, float64, string), part string, s memsim.Stats) {
	n := s.Reads + s.Writes
	set("memsim."+part+".requests", float64(n), "count")
	set("memsim."+part+".write_share", ratio(s.Writes, n), "fraction")
	set("memsim."+part+".row_hit_rate", ratio(s.RowHits, s.RowHits+s.RowMisses+s.RowConflicts), "fraction")
	set("memsim."+part+".avg_wait_cycles", ratio(s.TotalWait, n), "cycles")
}

func cacheCounts(set func(string, float64, string), level string, s cache.Stats) {
	set("cache."+level+".accesses", float64(s.Accesses), "count")
	set("cache."+level+".hit_rate", ratio(s.Hits, s.Accesses), "fraction")
	set("cache."+level+".writebacks", float64(s.Writebacks), "count")
}

// ratio is n/d, or 0 when d is 0.
func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
