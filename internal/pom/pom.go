// Package pom reimplements PoM (Sim et al., MICRO 2014, "Transparent
// Hardware Management of Stacked DRAM as Part of Memory") as configured by
// the PageSeer paper's Section IV-B: 2KB segments, direct-mapped swap
// groups, fast swaps, a swap threshold of K=12 accesses, and a 32KB SRC
// (segment remap cache) backed by a DRAM-resident remap table.
package pom

import (
	"fmt"

	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/mmu"
)

// SegmentBytes is PoM's swap granularity.
const SegmentBytes = 2048

const segShift = 11

// Config holds PoM's parameters.
type Config struct {
	// K is the access-count threshold that triggers a swap (12, adjusted
	// for this memory timing model per Section IV-B).
	K uint32
	// CounterDecayInterval halves segment counters this often (CPU cycles).
	CounterDecayInterval uint64
	// SRCEntries and SRCWays give the segment remap cache geometry
	// (32KB like PageSeer's PRTc).
	SRCEntries int
	SRCWays    int
	SRCLatency uint64
	// RemapTableBytes sizes the DRAM-resident full remap table.
	RemapTableBytes uint64
	// CounterTableEntries bounds the per-segment counter storage.
	CounterTableEntries int
}

// DefaultConfig returns the Section IV-B configuration.
func DefaultConfig() Config {
	return Config{
		K:                    12,
		CounterDecayInterval: 100_000,
		SRCEntries:           8192, // 32KB / 4B group entries
		SRCWays:              4,
		SRCLatency:           2,
		RemapTableBytes:      512 << 10,
		CounterTableEntries:  16384,
	}
}

// Scale shrinks the SRC with the memory system, mirroring core.Config.Scale.
func (c Config) Scale(factor int) Config {
	if factor <= 1 {
		return c
	}
	root := 1
	for (root+1)*(root+1) <= factor {
		root++
	}
	factor = root
	if s := c.SRCEntries / factor; s > 0 {
		c.SRCEntries = s
	} else {
		c.SRCEntries = 1
	}
	if s := c.CounterTableEntries / factor; s >= 64 {
		c.CounterTableEntries = s
	} else {
		c.CounterTableEntries = 64
	}
	if s := c.RemapTableBytes / uint64(factor); s >= 4096 {
		c.RemapTableBytes = s
	} else {
		c.RemapTableBytes = 4096
	}
	return c
}

// Stats counts PoM activity.
type Stats struct {
	Swaps         uint64
	SwapsDeclined uint64 // engine at capacity
	SwapsBlocked  uint64 // target slot busy or frozen
}

type seg uint64 // global segment index (addr >> 11)

// PoM is the baseline manager.
type PoM struct {
	sim *engine.Sim
	ctl *hmc.Controller
	cfg Config

	src       *hmc.MetaCache
	srcRegion hmc.MetaRegion

	fastSegs seg // number of DRAM segments == number of swap groups
	slots    *hmc.SlotRemap[seg]

	counters  map[seg]uint32
	lastDecay uint64

	stats Stats
}

// New installs a PoM manager on the controller.
func New(ctl *hmc.Controller, cfg Config) *PoM {
	p := &PoM{
		sim:      ctl.Sim,
		ctl:      ctl,
		cfg:      cfg,
		fastSegs: seg(ctl.Layout.DRAMBytes / SegmentBytes),
		counters: make(map[seg]uint32),
	}
	p.srcRegion = ctl.AllocMetaRegion(cfg.RemapTableBytes, 4)
	p.slots = hmc.NewSlotRemap(ctl, SegmentBytes, p.srcRegion, p.committed)
	p.src = hmc.NewMetaCache(ctl.Sim, hmc.MetaCacheConfig{
		Name: "SRC", Entries: cfg.SRCEntries, Ways: cfg.SRCWays,
		HitLatency: cfg.SRCLatency, EntriesPerLine: 16, // 4B group entries
	}, p.srcRegion, ctl.IssueLine)
	ctl.SetManager(p)
	return p
}

// Name implements hmc.Manager.
func (p *PoM) Name() string { return "PoM" }

// Stats returns a snapshot of the counters.
func (p *PoM) Stats() Stats { return p.stats }

// SRC exposes the segment remap cache (Figure 13 reads its wait time).
func (p *PoM) SRC() *hmc.MetaCache { return p.src }

func segOf(a mem.Addr) seg { return seg(a >> segShift) }

// group returns the swap group (== fast segment index) a segment belongs
// to. Fast segments are their own group; slow segments direct-map onto one.
func (p *PoM) group(s seg) seg {
	if s < p.fastSegs {
		return s
	}
	return (s - p.fastSegs) % p.fastSegs
}

// TranslateLine implements hmc.Manager.
func (p *PoM) TranslateLine(addr mem.Addr) mem.Addr { return p.slots.TranslateLine(addr) }

// CheckIntegrity implements hmc.Manager.
func (p *PoM) CheckIntegrity() error {
	if err := p.slots.Verify(); err != nil {
		return fmt.Errorf("pom: %w", err)
	}
	return nil
}

// HandleRequest implements hmc.Manager: SRC lookup on the critical path,
// counter tracking and swap trigger off it.
func (p *PoM) HandleRequest(r *hmc.Request) {
	s := segOf(r.Line)
	if !r.Meta.Writeback && !r.Meta.PageWalk {
		p.track(s)
	}
	p.src.AccessV(uint64(p.group(s)), false, r.Meta.V, r.RouteFn())
}

func (p *PoM) maybeDecay() {
	if p.cfg.CounterDecayInterval == 0 {
		return
	}
	now := p.sim.Now()
	for p.lastDecay+p.cfg.CounterDecayInterval <= now {
		p.lastDecay += p.cfg.CounterDecayInterval
		for s, c := range p.counters {
			c /= 2
			if c == 0 {
				delete(p.counters, s)
				continue
			}
			p.counters[s] = c
		}
		if len(p.counters) == 0 {
			rem := (now - p.lastDecay) / p.cfg.CounterDecayInterval
			p.lastDecay += rem * p.cfg.CounterDecayInterval
			break
		}
	}
}

// track counts accesses to segments whose data currently resides in slow
// memory and triggers a fast swap at K.
func (p *PoM) track(s seg) {
	p.maybeDecay()
	if p.slots.Locate(s) < p.fastSegs {
		return // already in fast memory
	}
	if len(p.counters) >= p.cfg.CounterTableEntries {
		p.evictColdestCounter()
	}
	c := p.counters[s] + 1
	p.counters[s] = c
	if c >= p.cfg.K {
		p.trySwap(s)
	}
}

func (p *PoM) evictColdestCounter() {
	var victim seg
	var vc uint32 = ^uint32(0)
	for s, c := range p.counters {
		// Lowest-segment tie-break: map iteration order is random, and a
		// tie-dependent victim would make runs (and checkpoint round trips)
		// nondeterministic.
		if c < vc || (c == vc && s < victim) {
			victim, vc = s, c
		}
	}
	delete(p.counters, victim)
}

// trySwap performs PoM's fast swap: segment s (slow-resident) exchanges
// with whatever currently sits in its group's fast slot. The displaced data
// lands where s used to be — NOT at its own home (Section II-B).
func (p *PoM) trySwap(s seg) {
	switch p.slots.TryExchange(s, p.group(s)) {
	case hmc.ExchangeBlocked:
		p.stats.SwapsBlocked++
	case hmc.ExchangeRefused:
		p.stats.SwapsDeclined++
	}
}

// committed is PoM's post-commit step: refresh the SRC with the group's new
// entry and restart s's counting.
func (p *PoM) committed(s, fastSlot seg) {
	p.src.Prefetch(uint64(fastSlot))
	delete(p.counters, s)
	p.stats.Swaps++
}

// MMUHint implements hmc.Manager: PoM has no MMU connection.
func (p *PoM) MMUHint(mmu.Hint) {}

// FreezePage implements hmc.Manager: wait out in-flight swaps of the page's
// segments.
func (p *PoM) FreezePage(page mem.PPN, done func()) { p.slots.FreezePage(page, done) }

// UnfreezePage implements hmc.Manager.
func (p *PoM) UnfreezePage(mem.PPN) {}

// ResetStats zeroes the PoM counters (e.g. after warm-up), keeping all
// trained and remap state.
func (p *PoM) ResetStats() {
	p.stats = Stats{}
	p.src.ResetStats()
}
