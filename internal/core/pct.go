package core

import "pageseer/internal/mem"

// PCTEntry is the architectural content of one Page Correlation Table
// entry (Figure 6): the per-invocation LLC-miss count of a leader page and
// the identity and count of its most likely follower.
type PCTEntry struct {
	Count         uint32
	Follower      mem.PPN
	FollowerCount uint32
	HasFollower   bool
}

type successor struct {
	page  mem.PPN
	n     uint32
	valid bool
}

// filterEntry mirrors the Filter table entry of Figure 6: leader PPN and
// PID, the count accumulated during the current invocation, and two
// follower slots (the PCT's existing follower plus one new candidate).
type filterEntry struct {
	pid    int
	leader mem.PPN
	old    PCTEntry // snapshot brought in from the PCT
	count  uint32   // misses observed this invocation
	succ   [2]successor
	lru    uint64
	// prev/next thread the entry through the Filter's LRU list (head =
	// oldest stamp); next doubles as the free-list link while recycled.
	prev, next *filterEntry
}

// pidState is one process's leadership and debounce state. The presence
// flags record which of the per-pid tables held a key for this pid, so the
// checkpoint writes exactly the key sets the Filter has populated.
type pidState struct {
	leader  mem.PPN // current leader (valid while hasLead)
	hasLead bool
	// cand/candN debounce leadership changes (cfg.LeaderDebounce): a page
	// must miss that many times, without the current leader reasserting
	// itself in between, before it takes over the invocation.
	cand  mem.PPN
	candN uint32

	inLeader, inHasLead, inCand, inCandN bool
}

// CorrelatorStats counts correlation activity.
type CorrelatorStats struct {
	Invocations         uint64 // leader changes (new flurries)
	Writebacks          uint64 // filter entries folded back into the PCT
	EffectiveWritebacks uint64 // of those, ones that change swap decisions
	FollowerChanges     uint64
}

// Correlator implements the Page Correlation Table and its Filter front-end
// (Section III-C2). The full PCT lives architecturally in a Go map (its
// DRAM timing is modelled by the PCTc MetaCache in the manager); the Filter
// tracks the currently-flurrying pages and folds fresh counts back into the
// PCT with history halving: new = current + old/2.
type Correlator struct {
	cfg    Config
	pct    map[mem.PPN]PCTEntry
	filter map[mem.PPN]*filterEntry
	// head/tail are the oldest and newest Filter entries: touch moves an
	// entry to the tail, so lru stamps strictly increase along the list.
	head, tail *filterEntry
	pids       []pidState // indexed by pid, grown on first use
	tick       uint64
	stats      CorrelatorStats
	// freeFE recycles filter entries: leader changes are per-flurry events
	// in steady state, so allocating an entry per invocation would charge
	// the demand path's allocation budget.
	freeFE *filterEntry
	// onWriteback lets the manager mark the PCTc entry dirty when the fold
	// effectively changes a swap decision (the change bit of Figure 6).
	onWriteback func(leader mem.PPN, effective bool)
}

// NewCorrelator builds an empty correlator.
func NewCorrelator(cfg Config, onWriteback func(mem.PPN, bool)) *Correlator {
	if onWriteback == nil {
		onWriteback = func(mem.PPN, bool) {}
	}
	return &Correlator{
		cfg:         cfg,
		pct:         make(map[mem.PPN]PCTEntry),
		filter:      make(map[mem.PPN]*filterEntry),
		onWriteback: onWriteback,
	}
}

// Stats returns a snapshot of the counters.
func (c *Correlator) Stats() CorrelatorStats { return c.stats }

// Snapshot returns the freshest architectural view of page's PCT entry:
// history plus any invocation still accumulating in the Filter, else the
// PCT itself. Folding the live count in matters for the MMU-hint path:
// the hint fires *before* the demand miss that re-activates the entry and
// folds the previous invocation into history, so the raw in-Filter
// snapshot is one invocation stale there — a page's first re-walk would
// always look untrained and MMU-triggered swaps could never start.
func (c *Correlator) Snapshot(page mem.PPN) PCTEntry {
	if fe, ok := c.filter[page]; ok {
		e := fe.old
		if n := c.liveCount(page); n > e.Count {
			e.Count = n
		}
		return e
	}
	return c.pct[page]
}

// PCTSize returns the number of pages with PCT state (for footprint stats).
func (c *Correlator) PCTSize() int { return len(c.pct) }

// OnMiss records one data LLC miss by pid on page. It returns true when the
// miss starts a new invocation of page (the "first miss" that Section
// III-C2 uses as the prefetch-swap trigger point).
func (c *Correlator) OnMiss(pid int, page mem.PPN) (firstMiss bool) {
	st := c.state(pid)
	if st.hasLead && st.leader == page {
		// The leader reasserting itself dissolves any takeover candidate:
		// stragglers from the next flurry jumbled into this one by the
		// core's out-of-order window must not end the invocation.
		st.candN, st.inCandN = 0, true
		fe := c.filter[page]
		if fe != nil && fe.count < c.cfg.CounterMax {
			fe.count++
		}
		return false
	}
	if st.hasLead && c.cfg.LeaderDebounce > 1 {
		if st.candN == 0 || st.cand != page {
			st.cand, st.inCand = page, true
			st.candN, st.inCandN = 1, true
			return false
		}
		st.candN++
		if st.candN < c.cfg.LeaderDebounce {
			return false
		}
		st.candN = 0
	}

	// Leader change: page follows the previous leader.
	if st.hasLead {
		if prev, ok := c.filter[st.leader]; ok && prev.pid == pid {
			c.observeSuccessor(prev, page)
		}
	}
	st.leader, st.inLeader = page, true
	st.hasLead, st.inHasLead = true, true
	c.stats.Invocations++

	fe, ok := c.filter[page]
	if ok {
		// Re-activation while still filtered: fold the previous invocation
		// into history and start a fresh count.
		fe.old = c.folded(fe)
		fe.count = 1
		c.touch(fe)
		return true
	}
	// Bring the PCT entry into the Filter (evicting LRU if full).
	if len(c.filter) >= c.cfg.FilterEntries {
		c.evictLRU()
	}
	if fe = c.freeFE; fe != nil {
		c.freeFE = fe.next
		*fe = filterEntry{pid: pid, leader: page, old: c.pct[page], count: 1}
	} else {
		fe = &filterEntry{pid: pid, leader: page, old: c.pct[page], count: 1}
	}
	if fe.old.HasFollower {
		fe.succ[0] = successor{page: fe.old.Follower, valid: true}
	}
	c.filter[page] = fe
	c.linkTail(fe)
	c.touch(fe)
	return true
}

// state returns pid's state, growing the table on first use.
func (c *Correlator) state(pid int) *pidState {
	if pid >= len(c.pids) {
		c.pids = append(c.pids, make([]pidState, pid+1-len(c.pids))...)
	}
	return &c.pids[pid]
}

// isActiveLeader reports whether fe is its inserting pid's current leader.
func (c *Correlator) isActiveLeader(fe *filterEntry) bool {
	if fe.pid >= len(c.pids) {
		return false
	}
	st := &c.pids[fe.pid]
	return st.hasLead && st.leader == fe.leader
}

// observeSuccessor records that succ followed prev's flurry. Slot 0 holds
// the PCT's existing follower; slot 1 holds one new candidate, replaced
// CLOCK-style when repeatedly contradicted.
func (c *Correlator) observeSuccessor(prev *filterEntry, succ mem.PPN) {
	if c.cfg.NoCorr || succ == prev.leader {
		return
	}
	for i := range prev.succ {
		if prev.succ[i].valid && prev.succ[i].page == succ {
			if prev.succ[i].n < c.cfg.CounterMax {
				prev.succ[i].n++
			}
			return
		}
	}
	s := &prev.succ[1]
	if !s.valid {
		*s = successor{page: succ, n: 1, valid: true}
		return
	}
	if s.n > 0 {
		s.n--
		return
	}
	*s = successor{page: succ, n: 1, valid: true}
}

// touch restamps a linked entry as the most recently used.
func (c *Correlator) touch(fe *filterEntry) {
	c.tick++
	fe.lru = c.tick
	if fe != c.tail {
		c.unlink(fe)
		c.linkTail(fe)
	}
}

func (c *Correlator) linkTail(fe *filterEntry) {
	fe.prev, fe.next = c.tail, nil
	if c.tail != nil {
		c.tail.next = fe
	} else {
		c.head = fe
	}
	c.tail = fe
}

func (c *Correlator) unlink(fe *filterEntry) {
	if fe.prev != nil {
		fe.prev.next = fe.next
	} else {
		c.head = fe.next
	}
	if fe.next != nil {
		fe.next.prev = fe.prev
	} else {
		c.tail = fe.prev
	}
	fe.prev, fe.next = nil, nil
}

func (c *Correlator) evictLRU() {
	if victim := c.lruVictim(); victim != nil {
		c.writeback(victim)
	}
}

// lruVictim returns the oldest entry that is not its pid's active leader,
// or the oldest entry if every one is. Stamps are unique and rise along the
// list, so this is the full scan's "oldest non-active, else oldest" victim;
// each pid leads at most one entry, so the walk from the head takes at most
// #pids+1 steps.
func (c *Correlator) lruVictim() *filterEntry {
	for fe := c.head; fe != nil; fe = fe.next {
		if !c.isActiveLeader(fe) {
			return fe
		}
	}
	return c.head
}

// folded returns the entry produced by folding the filter state into the
// old snapshot: count = current + old/2, follower = best-observed successor.
func (c *Correlator) folded(fe *filterEntry) PCTEntry {
	e := PCTEntry{Count: fe.count + fe.old.Count/2}
	if e.Count > c.cfg.CounterMax {
		e.Count = c.cfg.CounterMax
	}
	if c.cfg.NoCorr {
		return e
	}
	best := -1
	for i, s := range fe.succ {
		if s.valid && (best == -1 || s.n > fe.succ[best].n) {
			best = i
		}
	}
	if best >= 0 {
		f := fe.succ[best].page
		e.Follower = f
		e.HasFollower = true
		// The follower's per-invocation miss count is the same quantity its
		// own leader entry tracks; read the freshest view (Section III-C2
		// keeps a separate counter — this model reads the follower's own
		// state, which carries the same value with less plumbing).
		e.FollowerCount = c.liveCount(f)
		if e.FollowerCount == 0 {
			e.FollowerCount = fe.succ[best].n
		}
	}
	return e
}

// liveCount estimates a page's per-invocation miss count including any
// in-progress invocation still accumulating in the Filter.
func (c *Correlator) liveCount(page mem.PPN) uint32 {
	if fe, ok := c.filter[page]; ok {
		n := fe.count + fe.old.Count/2
		if hist := fe.old.Count; hist > n {
			n = hist
		}
		if n > c.cfg.CounterMax {
			n = c.cfg.CounterMax
		}
		return n
	}
	return c.pct[page].Count
}

func (c *Correlator) writeback(fe *filterEntry) {
	newEntry := c.folded(fe)
	old := c.pct[fe.leader]
	effective := c.effectiveChange(old, newEntry)
	if newEntry.HasFollower && (!old.HasFollower || old.Follower != newEntry.Follower) {
		c.stats.FollowerChanges++
	}
	c.pct[fe.leader] = newEntry
	delete(c.filter, fe.leader)
	c.unlink(fe)
	fe.next = c.freeFE
	c.freeFE = fe
	c.stats.Writebacks++
	if effective {
		c.stats.EffectiveWritebacks++
	}
	c.onWriteback(fe.leader, effective)
}

// effectiveChange implements the change bit: a writeback matters only if it
// flips a swap decision for any involved page (Section III-C2). Learning a
// sub-threshold follower, or count drift on the same side of the threshold,
// changes no swap action and is not effective.
func (c *Correlator) effectiveChange(old, new PCTEntry) bool {
	t := c.cfg.PCTThreshold
	if (old.Count >= t) != (new.Count >= t) {
		return true
	}
	oldF := old.HasFollower && old.FollowerCount >= t
	newF := new.HasFollower && new.FollowerCount >= t
	if oldF != newF {
		return true
	}
	return oldF && newF && old.Follower != new.Follower
}

// Flush writes every filter entry back to the PCT (end of simulation),
// oldest first. The order matters: a leader's fold reads its follower's
// live count, which differs before and after the follower's own fold.
func (c *Correlator) Flush() {
	for c.head != nil {
		c.writeback(c.head)
	}
	clear(c.pids)
}
