package hmc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

// refMetaCache is the metadata cache as it was before line fills became
// one pass: a find before every install, install's own victim scan (the
// first invalid way, else the least recently used), and in-flight fetches
// kept in a map from line key to parked waiters. It is the oracle
// FuzzMetaCacheFill checks the real cache against.
type refMetaCache struct {
	sim     *engine.Sim
	region  MetaRegion
	issue   IssueFunc
	hitLat  uint64
	bg      bool
	epl     uint64
	sets    [][]refMetaLine
	tick    uint64
	pending map[uint64][]func()
}

type refMetaLine struct {
	key   uint64
	valid bool
	dirty bool
	lru   uint64
}

func newRefMetaCache(sim *engine.Sim, cfg MetaCacheConfig, region MetaRegion, issue IssueFunc) *refMetaCache {
	c := &refMetaCache{sim: sim, region: region, issue: issue, hitLat: cfg.HitLatency,
		bg: cfg.Background, epl: uint64(max(cfg.EntriesPerLine, 1)), pending: map[uint64][]func(){}}
	c.sets = make([][]refMetaLine, cfg.Entries/cfg.Ways)
	for i := range c.sets {
		c.sets[i] = make([]refMetaLine, cfg.Ways)
	}
	return c
}

func (c *refMetaCache) find(key uint64) *refMetaLine {
	set := c.sets[key%uint64(len(c.sets))]
	for i := range set {
		if set[i].valid && set[i].key == key {
			return &set[i]
		}
	}
	return nil
}

func (c *refMetaCache) touch(l *refMetaLine, dirty bool) {
	c.tick++
	l.lru = c.tick
	if dirty {
		l.dirty = true
	}
}

func (c *refMetaCache) access(key uint64, dirty, urgent bool, done func()) {
	c.sim.After(c.hitLat, func() {
		if l := c.find(key); l != nil {
			c.touch(l, dirty)
			done()
			return
		}
		prio := PrioDemand
		if !urgent && c.bg {
			prio = PrioSwap
		}
		c.fetch(key, prio, func() {
			if l := c.find(key); l != nil {
				c.touch(l, dirty)
			}
			done()
		})
	})
}

func (c *refMetaCache) prefetch(key uint64) {
	if c.find(key) == nil {
		c.fetch(key, PrioSwap, nil)
	}
}

func (c *refMetaCache) fetch(key uint64, prio Priority, done func()) {
	lk := key / c.epl
	if ws, inflight := c.pending[lk]; inflight {
		if done != nil {
			c.pending[lk] = append(ws, done)
		}
		return
	}
	var ws []func()
	if done != nil {
		ws = append(ws, done)
	}
	c.pending[lk] = ws
	c.issue(c.region.EntryAddr(key), false, prio, func() {
		for k := lk * c.epl; k < (lk+1)*c.epl; k++ {
			c.install(k, true)
		}
		ws := c.pending[lk]
		delete(c.pending, lk)
		for _, w := range ws {
			w()
		}
	})
}

func (c *refMetaCache) install(key uint64, writeback bool) {
	if c.find(key) != nil {
		return
	}
	set := c.sets[key%uint64(len(c.sets))]
	victim := &set[0]
	for i := range set {
		if !set[i].valid {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	if writeback && victim.valid && victim.dirty {
		c.issue(c.region.EntryAddr(victim.key), true, PrioSwap, nil)
	}
	c.tick++
	*victim = refMetaLine{key: key, valid: true, lru: c.tick}
}

func (c *refMetaCache) accessFunctional(key uint64, dirty bool) {
	if l := c.find(key); l != nil {
		c.touch(l, dirty)
		return
	}
	lk := key / c.epl
	for k := lk * c.epl; k < (lk+1)*c.epl; k++ {
		c.install(k, false)
	}
	if l := c.find(key); l != nil {
		c.touch(l, dirty)
	}
}

// parkIssuer records every line access and parks each one that has a
// completion until the test returns it, so the test controls the order
// accesses complete in.
type parkIssuer struct {
	log   []string
	dones []func()
}

func (p *parkIssuer) issue(addr mem.Addr, write bool, prio Priority, done func()) {
	p.log = append(p.log, fmt.Sprintf("%#x w=%v p=%d", uint64(addr), write, prio))
	if done != nil {
		p.dones = append(p.dones, done)
	}
}

// complete returns the parked access at index i.
func (p *parkIssuer) complete(i int) {
	done := p.dones[i]
	p.dones = slices.Delete(p.dones, i, i+1)
	done()
}

// runMetaCacheFill drives the cache and the reference with one random
// stream of accesses, urgent accesses, prefetches, functional accesses,
// dirty marks and out-of-order fetch returns, comparing after every step
// the residency (key, LRU stamp, dirty bit of every way), the line traffic
// issued (the writeback address sequence included), and the order parked
// accesses were released in. geom picks the geometry: 1-4 ways, 1-7 sets,
// 1-20 entries per line, so a line's entries may wrap round the sets more
// than once.
func runMetaCacheFill(tb testing.TB, seed int64, geom uint8) {
	rng := rand.New(rand.NewSource(seed))
	ways := 1 + int(geom%4)
	sets := 1 + int(geom/4%7)
	epl := 1 + rng.Intn(20)
	cfg := MetaCacheConfig{Name: "f", Entries: ways * sets, Ways: ways, HitLatency: uint64(rng.Intn(3)),
		EntriesPerLine: epl, Background: rng.Intn(2) == 0}
	region := MetaRegion{Base: 0x4000, Bytes: 1 << 16, EntrySize: 4}
	keySpace := uint64(3 * ways * sets * epl)

	simA, simB := engine.New(), engine.New()
	pa, pb := &parkIssuer{}, &parkIssuer{}
	c := NewMetaCache(simA, cfg, region, pa.issue)
	ref := newRefMetaCache(simB, cfg, region, pb.issue)
	var relA, relB []int

	for step := 0; step < 400; step++ {
		key := uint64(rng.Int63n(int64(keySpace)))
		dirty := rng.Intn(3) == 0
		switch op := rng.Intn(10); {
		case op < 3:
			id := step
			c.Access(key, dirty, func() { relA = append(relA, id) })
			ref.access(key, dirty, false, func() { relB = append(relB, id) })
		case op < 4:
			id := step
			c.AccessUrgent(key, func() { relA = append(relA, id) })
			ref.access(key, false, true, func() { relB = append(relB, id) })
		case op < 5:
			c.Prefetch(key)
			ref.prefetch(key)
		case op < 6 && len(pa.dones) == 0:
			// Functional accesses only between detailed phases, as in a
			// sampled run.
			c.AccessFunctional(key, dirty)
			ref.accessFunctional(key, dirty)
		case op < 7:
			c.MarkDirty(key)
			if l := ref.find(key); l != nil {
				l.dirty = true
			}
		case len(pa.dones) > 0:
			i := rng.Intn(len(pa.dones))
			if len(pb.dones) != len(pa.dones) {
				tb.Fatalf("seed %d: %d fetches parked, reference %d", seed, len(pa.dones), len(pb.dones))
			}
			pa.complete(i)
			pb.complete(i)
		}
		simA.Drain(0)
		simB.Drain(0)
		compareMetaCache(tb, seed, step, c, ref)
		if !slices.Equal(pa.log, pb.log) {
			tb.Fatalf("seed %d step %d: line traffic\n%v\nreference\n%v", seed, step, pa.log, pb.log)
		}
		if !slices.Equal(relA, relB) {
			tb.Fatalf("seed %d step %d: releases %v, reference %v", seed, step, relA, relB)
		}
	}
	for len(pa.dones) > 0 {
		pa.complete(0)
		pb.complete(0)
		simA.Drain(0)
		simB.Drain(0)
	}
	compareMetaCache(tb, seed, -1, c, ref)
	if len(c.fetches) != 0 || len(ref.pending) != 0 || c.liveFetch != 0 || c.liveTxn != 0 {
		tb.Fatalf("seed %d: %d fetches live (%d records), reference %d", seed, len(c.fetches), c.liveFetch, len(ref.pending))
	}
}

func compareMetaCache(tb testing.TB, seed int64, step int, c *MetaCache, ref *refMetaCache) {
	tb.Helper()
	if c.tick != ref.tick {
		tb.Fatalf("seed %d step %d: tick %d, reference %d", seed, step, c.tick, ref.tick)
	}
	for s := range ref.sets {
		got := c.set(uint64(s))
		for w, want := range ref.sets[s] {
			l := &got[w]
			if l.valid() != want.valid || (want.valid && (l.key != want.key || l.lru() != want.lru || l.dirty() != want.dirty)) {
				tb.Fatalf("seed %d step %d: set %d way %d holds {key %d valid %v dirty %v lru %d}, reference %+v",
					seed, step, s, w, l.key, l.valid(), l.dirty(), l.lru(), want)
			}
		}
	}
	lks := map[uint64]bool{}
	for i, t := range c.fetches {
		if t.idx != i || c.fetchKeys[i] != t.lk || lks[t.lk] {
			tb.Fatalf("seed %d step %d: live fetch list inconsistent at %d", seed, step, i)
		}
		lks[t.lk] = true
		if _, ok := ref.pending[t.lk]; !ok || len(ref.pending[t.lk]) != len(t.ws) {
			tb.Fatalf("seed %d step %d: line %d in flight with %d waiters, reference %v", seed, step, t.lk, len(t.ws), ok)
		}
	}
	if len(lks) != len(ref.pending) {
		tb.Fatalf("seed %d step %d: %d lines in flight, reference %d", seed, step, len(lks), len(ref.pending))
	}
}

func TestMetaCacheFillMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for geom := uint8(0); geom < 28; geom += 3 {
			runMetaCacheFill(t, seed, geom)
		}
	}
}

// FuzzMetaCacheFill searches for a stream on which the one-pass line fill
// and the slice of live fetches disagree with the find+install+pending-map
// reference (make fuzz-metacache).
func FuzzMetaCacheFill(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		for geom := uint8(0); geom < 28; geom += 9 {
			f.Add(seed, geom)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, geom uint8) {
		runMetaCacheFill(t, seed, geom)
	})
}
