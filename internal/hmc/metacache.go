package hmc

import (
	"fmt"

	"pageseer/internal/check"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/obs/attrib"
)

// MetaRegion is a contiguous range of DRAM reserved for a controller
// metadata table (the full PRT, PCT, or a baseline's remap table). The
// architectural contents of such tables live in ordinary Go maps inside the
// managers; MetaRegion only provides the *timing* of reaching the in-memory
// copy: each entry access becomes one line access to the right DRAM address.
type MetaRegion struct {
	Base      mem.Addr
	Bytes     uint64
	EntrySize uint64
}

// EntryAddr returns the DRAM line address holding entry idx.
func (r MetaRegion) EntryAddr(idx uint64) mem.Addr {
	off := (idx * r.EntrySize) % r.Bytes
	return mem.LineOf(r.Base + mem.Addr(off))
}

// MetaCacheConfig sizes an on-controller metadata cache.
type MetaCacheConfig struct {
	Name string
	// Entries and Ways give the geometry; sets = Entries/Ways (not
	// necessarily a power of two — these are custom SRAM arrays). Tags are
	// per entry, as in the paper's 3.5B/10.5B entry formats.
	Entries int
	Ways    int
	// HitLatency is the SRAM access time in CPU cycles (1 memory cycle =
	// 2 CPU cycles for the PRTc/PCTc in Table II).
	HitLatency uint64
	// EntriesPerLine is how many table entries share one 64B DRAM line
	// (18 for 3.5B PRT entries, 6 for 10.5B PCT entries). A miss fetches
	// the whole line and installs every entry it carries, so adjacent keys
	// ride along; capacity and eviction remain per entry. 0 means 1.
	EntriesPerLine int
	// Background marks a cache whose miss fetches ride the background
	// (swap) priority class: structures that are off the request critical
	// path, like the PCTc (Section III-C3: "the HPTs and the PCTc are off
	// the critical path").
	Background bool
}

// Validate reports whether the geometry describes a buildable metadata
// cache. NewMetaCache panics on the same conditions; Validate lets
// sim.Config.Validate surface the diagnosis as an error before anything is
// built.
func (c MetaCacheConfig) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("hmc: meta cache %s: %d entries is not positive", c.Name, c.Entries)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("hmc: meta cache %s: %d ways is not positive", c.Name, c.Ways)
	}
	if c.Entries/c.Ways < 1 {
		return fmt.Errorf("hmc: meta cache %s has %d entries < %d ways", c.Name, c.Entries, c.Ways)
	}
	if c.EntriesPerLine < 0 {
		return fmt.Errorf("hmc: meta cache %s: %d entries per line is negative", c.Name, c.EntriesPerLine)
	}
	return nil
}

// MetaCacheStats counts cache activity. WaitCycles accumulates, over all
// Access calls that missed, the cycles between the access and the fill —
// the quantity Figure 13 reports for the PRTc.
type MetaCacheStats struct {
	Hits       uint64
	Misses     uint64
	Prefetches uint64
	Writebacks uint64
	WaitCycles uint64
}

// Add accumulates o into s (sampled-window aggregation).
func (s *MetaCacheStats) Add(o MetaCacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Prefetches += o.Prefetches
	s.Writebacks += o.Writebacks
	s.WaitCycles += o.WaitCycles
}

// metaLine is one cached entry in 16 bytes, so a 4-way set fills one
// 64-byte host cache line. stamp packs the LRU tick of the last use above
// the dirty bit; ticks start at 1 and are unique, so stamps order like
// ticks, and an invalid way — which nothing ever writes — has stamp 0,
// below every valid one.
type metaLine struct {
	key   uint64
	stamp uint64
}

func (l *metaLine) valid() bool { return l.stamp != 0 }
func (l *metaLine) dirty() bool { return l.stamp&1 != 0 }
func (l *metaLine) lru() uint64 { return l.stamp >> 1 }

// MetaCache models an on-controller SRAM cache of a DRAM-resident metadata
// table. Keys are entry indices into the backing table. A miss issues one
// DRAM line read (and fills every entry the line carries); a dirty eviction
// issues a DRAM line write. The cached *values* live in the owning manager;
// the MetaCache tracks only presence and timing, which is all the hardware
// structure contributes.
type MetaCache struct {
	sim    *engine.Sim
	cfg    MetaCacheConfig
	region MetaRegion
	issue  IssueFunc

	epl   uint64
	nSets uint64
	ways  int
	lines []metaLine // set s is lines[s*ways : (s+1)*ways]
	tick  uint64
	// fetches holds the in-flight line fetches in no particular order, and
	// fetchKeys their line keys at the same positions: a miss scans the
	// keys for a fetch to merge into.
	fetches   []*fetchTxn
	fetchKeys []uint64
	freeTxn   *metaTxn
	freeFetch *fetchTxn
	liveTxn   int // pooled access records checked out
	liveFetch int // pooled fetch records checked out
	stats     MetaCacheStats

	// inj (nil when off) forces resident entries to refetch (thrash); set
	// through Controller.SetInjector or SetInjector directly.
	inj *check.Injector
}

// metaTxn carries one Access across the SRAM probe (and, on a miss, the
// DRAM line fetch): the lookup payload plus the two stage closures pre-bound
// to the record. Pooled per cache, so the PRTc probe every LLC miss pays —
// the hottest metadata path in the controller — allocates nothing in steady
// state.
type metaTxn struct {
	c      *MetaCache
	key    uint64
	dirty  bool
	urgent bool
	start  uint64
	v      *attrib.Vector // blame vector of the demand request this lookup serves (nil when off)
	done   func()

	lookFn func()
	fillFn func()
	next   *metaTxn
}

func (c *MetaCache) getTxn() *metaTxn {
	c.liveTxn++
	t := c.freeTxn
	if t == nil {
		t = &metaTxn{c: c}
		t.lookFn = func() { t.c.lookStage(t) }
		t.fillFn = func() { t.c.fillStage(t) }
		return t
	}
	c.freeTxn = t.next
	t.next = nil
	return t
}

func (c *MetaCache) putTxn(t *metaTxn) {
	c.liveTxn--
	t.key, t.dirty, t.urgent, t.start, t.v, t.done = 0, false, false, 0, nil, nil
	t.next = c.freeTxn
	c.freeTxn = t
}

// fetchTxn carries one in-flight DRAM line fetch: the line key, the
// accesses parked on it in arrival order, and the pre-bound return
// continuation. Pooled, with the waiter slice keeping its capacity, so miss
// fetches allocate nothing in steady state.
type fetchTxn struct {
	c    *MetaCache
	lk   uint64
	idx  int // position in c.fetches
	ws   []func()
	fn   func()
	next *fetchTxn
}

func (c *MetaCache) getFetch() *fetchTxn {
	c.liveFetch++
	t := c.freeFetch
	if t == nil {
		t = &fetchTxn{c: c}
		t.fn = func() { t.c.fetchDone(t) }
		return t
	}
	c.freeFetch = t.next
	t.next = nil
	return t
}

func (c *MetaCache) putFetch(t *fetchTxn) {
	c.liveFetch--
	for i := range t.ws {
		t.ws[i] = nil
	}
	t.ws = t.ws[:0]
	t.lk, t.idx = 0, 0
	t.next = c.freeFetch
	c.freeFetch = t
}

// inflight returns the live fetch of line lk, or nil.
func (c *MetaCache) inflight(lk uint64) *fetchTxn {
	for i, k := range c.fetchKeys {
		if k == lk {
			return c.fetches[i]
		}
	}
	return nil
}

// dropFetch removes t from the live list (moving the last entry into its
// place).
func (c *MetaCache) dropFetch(t *fetchTxn) {
	last := len(c.fetches) - 1
	if t.idx != last {
		m := c.fetches[last]
		m.idx = t.idx
		c.fetches[t.idx], c.fetchKeys[t.idx] = m, m.lk
	}
	c.fetches[last] = nil
	c.fetches, c.fetchKeys = c.fetches[:last], c.fetchKeys[:last]
}

// NewMetaCache builds a metadata cache over a DRAM region.
func NewMetaCache(sim *engine.Sim, cfg MetaCacheConfig, region MetaRegion, issue IssueFunc) *MetaCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.EntriesPerLine < 1 {
		cfg.EntriesPerLine = 1
	}
	nSets := cfg.Entries / cfg.Ways
	return &MetaCache{
		sim:    sim,
		cfg:    cfg,
		region: region,
		issue:  issue,
		epl:    uint64(cfg.EntriesPerLine),
		nSets:  uint64(nSets),
		ways:   cfg.Ways,
		lines:  make([]metaLine, nSets*cfg.Ways),
	}
}

// Config returns the cache configuration.
func (c *MetaCache) Config() MetaCacheConfig { return c.cfg }

// Sets returns the number of sets.
func (c *MetaCache) Sets() int { return int(c.nSets) }

// SetOf returns the set index key maps to.
func (c *MetaCache) SetOf(key uint64) int { return int(key % c.nSets) }

// Stats returns a snapshot of the counters.
func (c *MetaCache) Stats() MetaCacheStats { return c.stats }

// lineKey groups adjacent table entries that share a DRAM line.
func (c *MetaCache) lineKey(key uint64) uint64 { return key / c.epl }

// set returns the ways of set s.
func (c *MetaCache) set(s uint64) []metaLine {
	i := int(s) * c.ways
	return c.lines[i : i+c.ways : i+c.ways]
}

func (c *MetaCache) find(key uint64) *metaLine {
	if l, hit := c.slot(key%c.nSets, key); hit {
		return l
	}
	return nil
}

// slot looks key up in set s in one pass: it returns key's way and true
// when key is resident, else the way an install of key fills and false —
// the first invalid way, else the least recently used. Invalid ways have
// stamp 0, below every valid way's, so that is simply the earliest way of
// least stamp.
func (c *MetaCache) slot(s, key uint64) (*metaLine, bool) {
	set := c.set(s)
	v, least := 0, set[0].stamp
	for i := range set {
		st := set[i].stamp
		if st != 0 && set[i].key == key {
			return &set[i], true
		}
		if st < least {
			v, least = i, st
		}
	}
	return &set[v], false
}

// Present reports whether key is cached (no LRU update, no timing).
func (c *MetaCache) Present(key uint64) bool { return c.find(key) != nil }

// Access looks up key, modelling timing: after HitLatency, a hit calls done
// immediately; a miss fetches the entry's line from DRAM first. dirty marks
// the entry modified (it will be written back to DRAM on eviction). The
// cycles a missing access spends waiting are added to WaitCycles.
func (c *MetaCache) Access(key uint64, dirty bool, done func()) {
	c.AccessV(key, dirty, nil, done)
}

// AccessV is Access with a cycle-accounting blame vector: a hit charges the
// SRAM probe to CompRemap (remap-lookup time on the critical path); a miss
// charges the DRAM table fetch to CompMeta. v may be nil (attribution off).
func (c *MetaCache) AccessV(key uint64, dirty bool, v *attrib.Vector, done func()) {
	t := c.getTxn()
	t.key, t.dirty, t.v, t.done = key, dirty, v, done
	c.sim.After(c.cfg.HitLatency, t.lookFn)
}

// lookStage resolves the SRAM probe. Hits release the record before the
// callback; misses park it on the pending line fetch (fillStage releases).
func (c *MetaCache) lookStage(t *metaTxn) {
	if l := c.find(t.key); l != nil {
		// Thrash injection treats the hit as a miss WITHOUT invalidating the
		// line (dropping a dirty line here would silently lose its
		// writeback): the access takes the full fetch path and fillStage
		// finds the entry already resident.
		if c.inj == nil || !c.inj.ForceMetaMiss() {
			c.stats.Hits++
			c.touch(l, t.dirty)
			t.v.Take(attrib.CompRemap, c.sim.Now())
			done := t.done
			c.putTxn(t)
			if done != nil {
				done()
			}
			return
		}
	}
	c.stats.Misses++
	t.start = c.sim.Now()
	if t.urgent {
		c.fetchUrgent(t.key, t.fillFn)
	} else {
		c.fetch(t.key, false, t.fillFn)
	}
}

func (c *MetaCache) fillStage(t *metaTxn) {
	c.stats.WaitCycles += c.sim.Now() - t.start
	if l := c.find(t.key); l != nil {
		c.touch(l, t.dirty)
	}
	// The demand request waited this whole interval on a metadata line
	// fetch — the cost Figure 13 isolates for the PRTc.
	t.v.Take(attrib.CompMeta, c.sim.Now())
	done := t.done
	c.putTxn(t)
	if done != nil {
		done()
	}
}

// Prefetch fetches key into the cache without a waiter — the early PRTc/PCTc
// loads PageSeer starts from MMU hints (Section V-B, third factor).
func (c *MetaCache) Prefetch(key uint64) {
	if c.find(key) != nil {
		return
	}
	c.stats.Prefetches++
	c.fetch(key, true, nil)
}

// AccessUrgent is Access with a demand-priority miss fetch even on a
// Background cache — for the MMU Driver's hint evaluation, whose entire
// value is lead time over the replayed access (Section III-B).
func (c *MetaCache) AccessUrgent(key uint64, done func()) {
	t := c.getTxn()
	t.key, t.urgent, t.done = key, true, done
	c.sim.After(c.cfg.HitLatency, t.lookFn)
}

func (c *MetaCache) fetchUrgent(key uint64, done func()) {
	c.fetchAt(key, PrioDemand, done)
}

func (c *MetaCache) fetch(key uint64, prefetch bool, done func()) {
	prio := PrioDemand
	if prefetch || c.cfg.Background {
		prio = PrioSwap
	}
	c.fetchAt(key, prio, done)
}

// fetchAt parks done (if any) on key's line fetch, issuing the fetch at
// prio unless one is already in flight.
func (c *MetaCache) fetchAt(key uint64, prio Priority, done func()) {
	lk := c.lineKey(key)
	t := c.inflight(lk)
	if t == nil {
		t = c.getFetch()
		t.lk, t.idx = lk, len(c.fetches)
		c.fetches = append(c.fetches, t)
		c.fetchKeys = append(c.fetchKeys, lk)
		c.issue(c.region.EntryAddr(key), false, prio, t.fn)
	}
	if done != nil {
		t.ws = append(t.ws, done)
	}
}

// fetchDone installs the fetched line and wakes the parked accesses in
// arrival order. The fetch leaves the live list first, so a callback that
// misses on the same line starts a fresh fetch; the record returns to the
// pool after the last callback.
func (c *MetaCache) fetchDone(t *fetchTxn) {
	c.dropFetch(t)
	c.fillLine(t.lk, true)
	for i := 0; i < len(t.ws); i++ {
		t.ws[i]()
	}
	c.putFetch(t)
}

// fillLine installs every entry of line lk — a fetched line carries them
// all — in key order. The entries' keys are consecutive, so their sets are
// too: the set index is computed once and stepped with wrap-around. With
// writeback set, a dirty victim is written back to the DRAM table (change-
// bit behaviour: only dirty entries go back, Section III-C2); without it
// (the functional path) the writeback is dropped.
func (c *MetaCache) fillLine(lk uint64, writeback bool) {
	k := lk * c.epl
	s := k % c.nSets
	for end := k + c.epl; k < end; k++ {
		if l, hit := c.slot(s, k); !hit {
			if writeback && l.dirty() {
				c.stats.Writebacks++
				c.issue(c.region.EntryAddr(l.key), true, PrioSwap, nil)
			}
			c.tick++
			*l = metaLine{key: k, stamp: c.tick << 1}
		}
		if s++; s == c.nSets {
			s = 0
		}
	}
}

// AccessFunctional warms residency for key with no timing, no events, and
// no statistics (the sampled fast-forward path): a hit refreshes LRU and
// dirty state; a miss installs every entry of the backing DRAM line, as
// fetchDone would, with dirty-victim writebacks dropped silently — there is
// no bandwidth model to charge them to during fast-forward.
func (c *MetaCache) AccessFunctional(key uint64, dirty bool) {
	if l := c.find(key); l != nil {
		c.touch(l, dirty)
		return
	}
	c.fillLine(c.lineKey(key), false)
	if l := c.find(key); l != nil {
		c.touch(l, dirty)
	}
}

// MarkDirty sets the dirty bit of a resident entry (no timing).
func (c *MetaCache) MarkDirty(key uint64) {
	if l := c.find(key); l != nil {
		l.stamp |= 1
	}
}

func (c *MetaCache) touch(l *metaLine, dirty bool) {
	c.tick++
	l.stamp = c.tick<<1 | l.stamp&1
	if dirty {
		l.stamp |= 1
	}
}

// SetInjector wires a fault injector (nil disables).
func (c *MetaCache) SetInjector(i *check.Injector) { c.inj = i }

// Audit reports end-of-run invariant violations: a quiesced metadata cache
// has no pending line fetches and every pooled record back on its free list.
func (c *MetaCache) Audit(a *check.Audit) {
	a.Checkf(len(c.fetches) == 0,
		"meta cache %s: %d line fetch(es) still pending at quiescence", c.cfg.Name, len(c.fetches))
	a.Checkf(c.liveTxn == 0,
		"meta cache %s: %d pooled access record(s) never returned", c.cfg.Name, c.liveTxn)
	a.Checkf(c.liveFetch == 0,
		"meta cache %s: %d pooled fetch record(s) never returned", c.cfg.Name, c.liveFetch)
}

// ResetStats zeroes the cache counters (e.g. after warm-up) without
// touching residency state.
func (c *MetaCache) ResetStats() { c.stats = MetaCacheStats{} }
