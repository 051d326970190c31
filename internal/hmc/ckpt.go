package hmc

import (
	"fmt"
	"sort"

	"pageseer/internal/ckpt"
)

// Snapshot serializes the oracle's data⇄slot permutation. Both maps are
// written (sorted by key) even though they are inverses: Restore rebuilds
// them independently and the integrity hash pins their consistency.
func (o *Oracle) Snapshot(w *ckpt.Writer) {
	w.Section("hmc.oracle")
	w.U64(o.moves)
	keys := make([]uint64, 0, len(o.location))
	for k := range o.location {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.Int(len(keys))
	for _, k := range keys {
		w.U64(k)
		w.U64(o.location[k])
	}
	keys = keys[:0]
	for k := range o.owner {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.Int(len(keys))
	for _, k := range keys {
		w.U64(k)
		w.U64(o.owner[k])
	}
}

// Restore rehydrates the state written by Snapshot into a fresh oracle.
func (o *Oracle) Restore(r *ckpt.Reader) {
	r.Section("hmc.oracle")
	o.moves = r.U64()
	o.location = make(map[uint64]uint64)
	for n := r.Int(); n > 0 && r.Err() == nil; n-- {
		k := r.U64()
		o.location[k] = r.U64()
	}
	o.owner = make(map[uint64]uint64)
	for n := r.Int(); n > 0 && r.Err() == nil; n-- {
		k := r.U64()
		o.owner[k] = r.U64()
	}
}

// Snapshot serializes the metadata cache's residency state (per-entry key,
// valid, dirty, LRU), the LRU clock, and the counters. It refuses a
// non-quiesced cache (pending line fetches hold in-flight waiters).
func (c *MetaCache) Snapshot(w *ckpt.Writer) error {
	if len(c.fetches) != 0 || c.liveTxn != 0 || c.liveFetch != 0 {
		return fmt.Errorf("meta cache %s: %d pending fetch(es), %d access record(s), %d fetch record(s) live; snapshot requires quiescence",
			c.cfg.Name, len(c.fetches), c.liveTxn, c.liveFetch)
	}
	w.Section("hmc.meta." + c.cfg.Name)
	w.U64(c.tick)
	w.Int(int(c.nSets))
	w.Int(c.cfg.Ways)
	for i := range c.lines {
		l := &c.lines[i]
		w.U64(l.key)
		w.Bool(l.valid())
		w.Bool(l.dirty())
		w.U64(l.lru())
	}
	w.U64(c.stats.Hits)
	w.U64(c.stats.Misses)
	w.U64(c.stats.Prefetches)
	w.U64(c.stats.Writebacks)
	w.U64(c.stats.WaitCycles)
	return nil
}

// Restore rehydrates the state written by Snapshot into a freshly built
// metadata cache of the same geometry.
func (c *MetaCache) Restore(r *ckpt.Reader) {
	r.Section("hmc.meta." + c.cfg.Name)
	c.tick = r.U64()
	if n, ways := r.Int(), r.Int(); n != int(c.nSets) || ways != c.cfg.Ways {
		r.Failf("meta cache %s: snapshot geometry %dx%d, built %dx%d", c.cfg.Name, n, ways, c.nSets, c.cfg.Ways)
		return
	}
	for i := range c.lines {
		l := &c.lines[i]
		l.key = r.U64()
		valid, dirty, lru := r.Bool(), r.Bool(), r.U64()
		l.stamp = 0
		if valid {
			l.stamp = lru << 1
			if dirty {
				l.stamp |= 1
			}
		}
	}
	c.stats.Hits = r.U64()
	c.stats.Misses = r.U64()
	c.stats.Prefetches = r.U64()
	c.stats.Writebacks = r.U64()
	c.stats.WaitCycles = r.U64()
}

// Snapshot serializes the swap engine's counters. The running list and the
// pooled line records are provably empty at a quiesce point (the audit's
// invariant), so counters are the engine's only durable state; the op
// sequence number rides along so trace-track assignment stays stable across
// a restore.
func (e *SwapEngine) Snapshot(w *ckpt.Writer) error {
	if len(e.running) != 0 || e.liveOp != 0 || e.liveLine != 0 {
		return fmt.Errorf("swap engine: %d op(s) running, %d line(s) live; snapshot requires quiescence",
			len(e.running), e.liveLine)
	}
	w.Section("hmc.swap")
	w.U64(e.opSeq)
	w.U64(e.stats.OpsStarted)
	w.U64(e.stats.OpsCompleted)
	w.U64(e.stats.OpsRejected)
	w.U64(e.stats.LinesRead)
	w.U64(e.stats.LinesWritten)
	w.U64(e.stats.BufHits)
	w.U64(e.stats.BufWaits)
	w.U64(e.stats.EscalatedRead)
	w.U64(e.stats.OpCycles)
	return nil
}

// Restore rehydrates the state written by Snapshot.
func (e *SwapEngine) Restore(r *ckpt.Reader) {
	r.Section("hmc.swap")
	e.opSeq = r.U64()
	e.stats.OpsStarted = r.U64()
	e.stats.OpsCompleted = r.U64()
	e.stats.OpsRejected = r.U64()
	e.stats.LinesRead = r.U64()
	e.stats.LinesWritten = r.U64()
	e.stats.BufHits = r.U64()
	e.stats.BufWaits = r.U64()
	e.stats.EscalatedRead = r.U64()
	e.stats.OpCycles = r.U64()
}

// Snapshot serializes the controller shell's state: its counters and request
// epoch, the swap engine, the oracle, and both memory modules. The manager's
// own state (remap tables, hot-page counters, metadata caches) is
// serialized by the scheme, not here.
func (c *Controller) Snapshot(w *ckpt.Writer) error {
	if c.liveReq != 0 {
		return fmt.Errorf("hmc: %d request(s) in flight; snapshot requires quiescence", c.liveReq)
	}
	if len(c.frozen) != 0 {
		return fmt.Errorf("hmc: %d page(s) frozen by DMA; snapshot requires quiescence", len(c.frozen))
	}
	w.Section("hmc.ctl")
	w.U64(c.epoch)
	w.U64(c.stats.Demand)
	w.U64(c.stats.DataDemand)
	w.U64(c.stats.Writebacks)
	w.U64(c.stats.ServedDRAM)
	w.U64(c.stats.ServedNVM)
	w.U64(c.stats.ServedBuf)
	w.U64(c.stats.Positive)
	w.U64(c.stats.Negative)
	w.U64(c.stats.Neutral)
	w.U64(c.stats.LatencyTotal)
	w.U64(c.stats.MemLatencyTotal)
	w.U64(c.stats.PTEReachedHMC)
	w.U64(c.stats.PTEServedByHMC)
	if err := c.Engine.Snapshot(w); err != nil {
		return err
	}
	c.Oracle.Snapshot(w)
	if err := c.DRAM.Snapshot(w); err != nil {
		return err
	}
	return c.NVM.Snapshot(w)
}

// Restore rehydrates the state written by Snapshot into a freshly built
// controller.
func (c *Controller) Restore(r *ckpt.Reader) {
	r.Section("hmc.ctl")
	c.epoch = r.U64()
	c.stats.Demand = r.U64()
	c.stats.DataDemand = r.U64()
	c.stats.Writebacks = r.U64()
	c.stats.ServedDRAM = r.U64()
	c.stats.ServedNVM = r.U64()
	c.stats.ServedBuf = r.U64()
	c.stats.Positive = r.U64()
	c.stats.Negative = r.U64()
	c.stats.Neutral = r.U64()
	c.stats.LatencyTotal = r.U64()
	c.stats.MemLatencyTotal = r.U64()
	c.stats.PTEReachedHMC = r.U64()
	c.stats.PTEServedByHMC = r.U64()
	c.Engine.Restore(r)
	c.Oracle.Restore(r)
	c.DRAM.Restore(r)
	c.NVM.Restore(r)
}
