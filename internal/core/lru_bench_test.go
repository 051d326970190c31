package core

import (
	"math/rand"
	"testing"

	"pageseer/internal/mem"
)

var benchFirstMiss bool

// BenchmarkCorrelatorOnMiss drives the paper's 128-entry Filter with four
// interleaved pids whose flurries of 1–4 misses hop over a page pool four
// times the Filter, so most leader changes insert a page and evict one.
func BenchmarkCorrelatorOnMiss(b *testing.B) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	pages := 4 * cfg.FilterEntries
	ops := make([]corrOp, 1<<16)
	var cur [4]mem.PPN
	var left [4]int
	for i := range ops {
		pid := rng.Intn(4)
		if left[pid] == 0 {
			cur[pid] = mem.PPN(rng.Intn(pages))
			left[pid] = 1 + rng.Intn(4)
		}
		left[pid]--
		ops[i] = corrOp{pid: pid + 1, page: cur[pid]}
	}
	c := NewCorrelator(cfg, nil)
	for _, op := range ops {
		c.OnMiss(op.pid, op.page)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i&(len(ops)-1)]
		benchFirstMiss = c.OnMiss(op.pid, op.page)
	}
}

// BenchmarkPTECacheInsert fills the MMU Driver's 16-line PTE cache from a
// pool of 64 lines, so three inserts in four miss and evict.
func BenchmarkPTECacheInsert(b *testing.B) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	lines := make([]mem.Addr, 1<<12)
	for i := range lines {
		lines[i] = mem.Addr(rng.Intn(4*cfg.MMUDriverLines)) << mem.LineShift
	}
	p := NewPTECache(cfg.MMUDriverLines)
	for _, l := range lines {
		p.insert(l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.insert(lines[i&(len(lines)-1)])
	}
}
