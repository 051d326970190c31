// Package cameo reimplements CAMEO (Chou, Jaleel, Qureshi; MICRO 2014) as
// the PageSeer paper's Section II-B describes it: migration at 64B block
// granularity, a swap triggered on *every* access to a block in slow
// memory, direct-mapped swap groups (each group owns one fast-memory block
// and the set of slow blocks congruent to it), only one slow block of a
// group resident in fast memory at a time, and fast swaps.
//
// CAMEO is not part of the paper's evaluation (PoM and MemPod are); it is
// included as an extension baseline because the paper's background section
// defines it precisely and it brackets the design space from the
// fine-granularity end: minimal swap bandwidth per decision, maximal
// metadata pressure and conflict-miss exposure.
package cameo

import (
	"fmt"

	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/mmu"
)

// BlockBytes is CAMEO's migration granularity: one cache line.
const BlockBytes = mem.LineSize

// Config holds CAMEO's parameters.
type Config struct {
	// RemapEntries and RemapWays size the remap cache (one entry per swap
	// group, like PoM's SRC).
	RemapEntries int
	RemapWays    int
	RemapLatency uint64
	// RemapTableBytes sizes the DRAM-resident full remap table.
	RemapTableBytes uint64
}

// DefaultConfig returns a 32KB remap cache, matching the other schemes.
func DefaultConfig() Config {
	return Config{
		RemapEntries:    8192,
		RemapWays:       4,
		RemapLatency:    2,
		RemapTableBytes: 512 << 10,
	}
}

// Scale shrinks the remap cache with the memory system (square root, like
// the other schemes' SRAM structures).
func (c Config) Scale(factor int) Config {
	if factor <= 1 {
		return c
	}
	root := 1
	for (root+1)*(root+1) <= factor {
		root++
	}
	if s := c.RemapEntries / root; s > 0 {
		c.RemapEntries = s
	}
	if s := c.RemapTableBytes / uint64(factor); s >= 4096 {
		c.RemapTableBytes = s
	} else {
		c.RemapTableBytes = 4096
	}
	return c
}

// Stats counts CAMEO activity.
type Stats struct {
	Swaps        uint64
	SwapsDropped uint64 // engine at capacity (swap-on-every-access floods it)
	SwapsBlocked uint64 // block busy or frozen
}

type blk uint64 // global block index (addr >> 6)

// CAMEO is the baseline manager.
type CAMEO struct {
	sim *engine.Sim
	ctl *hmc.Controller
	cfg Config

	remapCache *hmc.MetaCache
	region     hmc.MetaRegion

	fastBlocks blk
	slots      *hmc.SlotRemap[blk]

	stats Stats
}

// New installs a CAMEO manager on the controller.
func New(ctl *hmc.Controller, cfg Config) *CAMEO {
	c := &CAMEO{
		sim:        ctl.Sim,
		ctl:        ctl,
		cfg:        cfg,
		fastBlocks: blk(ctl.Layout.DRAMBytes / BlockBytes),
	}
	c.region = ctl.AllocMetaRegion(cfg.RemapTableBytes, 4)
	c.slots = hmc.NewSlotRemap(ctl, BlockBytes, c.region, c.committed)
	c.remapCache = hmc.NewMetaCache(ctl.Sim, hmc.MetaCacheConfig{
		Name: "CAMEORemap", Entries: cfg.RemapEntries, Ways: cfg.RemapWays,
		HitLatency: cfg.RemapLatency, EntriesPerLine: 16,
	}, c.region, ctl.IssueLine)
	ctl.SetManager(c)
	return c
}

// Name implements hmc.Manager.
func (c *CAMEO) Name() string { return "CAMEO" }

// Stats returns a snapshot of the counters.
func (c *CAMEO) Stats() Stats { return c.stats }

// RemapCache exposes the remap cache for stats.
func (c *CAMEO) RemapCache() *hmc.MetaCache { return c.remapCache }

func blockOf(a mem.Addr) blk { return blk(a >> mem.LineShift) }

// group returns a block's swap group (== its fast-block index).
func (c *CAMEO) group(b blk) blk {
	if b < c.fastBlocks {
		return b
	}
	return (b - c.fastBlocks) % c.fastBlocks
}

// TranslateLine implements hmc.Manager.
func (c *CAMEO) TranslateLine(addr mem.Addr) mem.Addr { return c.slots.TranslateLine(addr) }

// CheckIntegrity implements hmc.Manager.
func (c *CAMEO) CheckIntegrity() error {
	if err := c.slots.Verify(); err != nil {
		return fmt.Errorf("cameo: %w", err)
	}
	return nil
}

// HandleRequest implements hmc.Manager: remap lookup on the critical path;
// every access whose block currently resides in slow memory triggers a
// fast swap with the group's fast slot.
func (c *CAMEO) HandleRequest(r *hmc.Request) {
	b := blockOf(r.Line)
	if !r.Meta.Writeback && !r.Meta.PageWalk && c.slots.Locate(b) >= c.fastBlocks {
		c.trySwap(b)
	}
	c.remapCache.AccessV(uint64(c.group(b)), false, r.Meta.V, r.RouteFn())
}

// trySwap performs CAMEO's fast swap: block b exchanges with whatever
// occupies its group's fast slot.
func (c *CAMEO) trySwap(b blk) {
	switch c.slots.TryExchange(b, c.group(b)) {
	case hmc.ExchangeBlocked:
		c.stats.SwapsBlocked++
	case hmc.ExchangeRefused:
		// Swap-on-every-access floods the buffers; CAMEO just retries on
		// the next access (the block stays slow meanwhile).
		c.stats.SwapsDropped++
	}
}

// committed is CAMEO's post-commit step: count the swap.
func (c *CAMEO) committed(_, _ blk) { c.stats.Swaps++ }

// MMUHint implements hmc.Manager: CAMEO has no MMU connection.
func (c *CAMEO) MMUHint(mmu.Hint) {}

// FreezePage implements hmc.Manager: wait out in-flight swaps of the page's
// blocks.
func (c *CAMEO) FreezePage(page mem.PPN, done func()) { c.slots.FreezePage(page, done) }

// UnfreezePage implements hmc.Manager.
func (c *CAMEO) UnfreezePage(mem.PPN) {}

// ResetStats zeroes the counters (e.g. after warm-up).
func (c *CAMEO) ResetStats() {
	c.stats = Stats{}
	c.remapCache.ResetStats()
}
