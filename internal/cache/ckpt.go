package cache

import (
	"fmt"

	"pageseer/internal/ckpt"
)

// Snapshot serializes the cache's architectural state: every line's tag,
// valid, dirty, and LRU stamp, the LRU clock, and the statistics counters.
// It refuses a non-quiesced cache (outstanding MSHRs hold in-flight fills a
// snapshot cannot capture).
func (c *Cache) Snapshot(w *ckpt.Writer) error {
	if c.outstanding != 0 || c.liveTxn != 0 || c.liveMSHR != 0 {
		return fmt.Errorf("cache %s: %d MSHR(s), %d txn record(s), %d MSHR record(s) live; snapshot requires quiescence",
			c.cfg.Name, c.outstanding, c.liveTxn, c.liveMSHR)
	}
	w.Section("cache." + c.cfg.Name)
	w.U64(c.lruTick)
	w.Int(len(c.sets))
	w.Int(c.cfg.Ways)
	for i := range c.sets {
		for j := range c.sets[i] {
			ln := &c.sets[i][j]
			w.U64(ln.tag)
			w.Bool(ln.valid())
			w.Bool(ln.dirty())
			w.U64(ln.lru())
		}
	}
	w.U64(c.stats.Accesses)
	w.U64(c.stats.Hits)
	w.U64(c.stats.Misses)
	w.U64(c.stats.MSHRMerges)
	w.U64(c.stats.Writebacks)
	w.U64(c.stats.PTEAccess)
	w.U64(c.stats.PTEMiss)
	return nil
}

// Restore rehydrates the state written by Snapshot into a freshly built
// cache of the same geometry. The functional-path MRU shortcut is left cold
// (staleness there is harmless by design).
func (c *Cache) Restore(r *ckpt.Reader) {
	r.Section("cache." + c.cfg.Name)
	c.lruTick = r.U64()
	if n, ways := r.Int(), r.Int(); n != len(c.sets) || ways != c.cfg.Ways {
		r.Failf("cache %s: snapshot geometry %dx%d, built %dx%d", c.cfg.Name, n, ways, len(c.sets), c.cfg.Ways)
		return
	}
	for i := range c.sets {
		for j := range c.sets[i] {
			ln := &c.sets[i][j]
			ln.tag = r.U64()
			valid, dirty, lru := r.Bool(), r.Bool(), r.U64()
			ln.stamp = 0
			if valid {
				ln.stamp = lru<<1 | dirtyBit(dirty)
			}
		}
	}
	c.stats.Accesses = r.U64()
	c.stats.Hits = r.U64()
	c.stats.Misses = r.U64()
	c.stats.MSHRMerges = r.U64()
	c.stats.Writebacks = r.U64()
	c.stats.PTEAccess = r.U64()
	c.stats.PTEMiss = r.U64()
	c.mru, c.mruSet = nil, 0
}
