package hmc

import (
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

// benchIssuer completes line reads after a fixed latency without
// allocating; writes are accepted and never complete, so the benchmarks
// measure the structure under test rather than a memory model.
type benchIssuer struct {
	sim     *engine.Sim
	latency uint64
}

func (b *benchIssuer) issue(addr mem.Addr, write bool, prio Priority, done func()) {
	if write || done == nil {
		return
	}
	b.sim.After(b.latency, done)
}

// BenchmarkMetaCacheLineFill times one PRTc miss end to end: the SRAM
// probe, the line fetch and the fill of the line's 18 entries. Once the
// cache has warmed, each fill evicts 18 resident entries, and every other
// fill writes a dirty one back.
func BenchmarkMetaCacheLineFill(b *testing.B) {
	sim := engine.New()
	bi := &benchIssuer{sim: sim, latency: 20}
	region := MetaRegion{Base: 0, Bytes: 1 << 24, EntrySize: 4}
	// The PRTc geometry at the default scale: 851 entries, 4-way.
	cfg := MetaCacheConfig{Name: "PRTc", Entries: 851, Ways: 4, HitLatency: 2, EntriesPerLine: 18}
	c := NewMetaCache(sim, cfg, region, bi.issue)
	// Stride by a prime number of lines so consecutive fills land in
	// scattered sets.
	const stride = 18 * 37
	key := uint64(0)
	for i := 0; i < 4096; i++ {
		c.Access(key, i%2 == 0, nil)
		sim.Drain(0)
		key += stride
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(key, i%2 == 0, nil)
		sim.Drain(0)
		key += stride
	}
}

// BenchmarkSwapEngineTryService times demand interception with MaxOps
// page swaps in flight, every line buffered: half the probes hit a
// swapping line (a buffer hit), half go to pages no op reads (the common
// case), spread over the address space.
func BenchmarkSwapEngineTryService(b *testing.B) {
	sim := engine.New()
	bi := &benchIssuer{sim: sim, latency: 1}
	cfg := DefaultSwapEngineConfig()
	e := NewSwapEngine(sim, cfg, bi.issue, nil)
	for i := 0; i < cfg.MaxOps; i++ {
		a := mem.Addr(i) * mem.PageSize
		if !e.start(pageSwapOp(a, a+0x1000000, nil), SwapMeta{}, 0, 0) {
			b.Fatal("Start rejected")
		}
	}
	sim.Drain(0)
	var probes [64]mem.Addr
	for i := range probes {
		op := mem.Addr(i % cfg.MaxOps)
		off := mem.Addr(i*7%mem.LinesPerPage) * mem.LineSize
		if i%2 == 0 {
			probes[i] = op*mem.PageSize + off // a swapping line
		} else {
			probes[i] = 0x4000000 + (op*31+128)*mem.PageSize + off // no op's page
		}
	}
	done := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TryService(probes[i%len(probes)], nil, done)
		if i%len(probes) == len(probes)-1 {
			sim.Drain(0)
		}
	}
	b.StopTimer()
	sim.Drain(0)
}
