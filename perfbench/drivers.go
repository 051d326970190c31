package main

import (
	"math/rand"
	"time"

	"pageseer/internal/cache"
	"pageseer/internal/engine"
	"pageseer/internal/hmc"
	"pageseer/internal/mem"
	"pageseer/internal/memsim"
	"pageseer/internal/mmu"
)

// The isolated drivers time calls into one layer's public functions on a
// private engine, away from the rest of the machine. Each repeats a fixed
// number of operations driverReps times and reports the median cost per
// operation, so the figure depends on the layer's code and not on the run
// length.
const (
	driverReps = 7
	// driverDepth is the number of accesses each closed-loop driver keeps
	// in flight, about what a core's MSHRs keep outstanding.
	driverDepth = 16
	// backendLatency is the fixed completion delay, in cycles, of the stubs
	// standing in for the next level below the cache and the metadata cache.
	backendLatency = 100
)

func runDrivers(m metrics, seed uint64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	m.set("memsim.ns_per_req.rowlocal", memsimDriver(rowLocalStream(rng, 100_000)), "ns")
	m.set("memsim.ns_per_req.scatter", memsimDriver(scatterStream(rng, 100_000)), "ns")
	m.set("cache.ns_per_access", cacheDriver(rng, 200_000), "ns")
	lookup, insert := tlbDriver(rng, 1_000_000)
	m.set("mmu.tlb.ns_per_lookup", lookup, "ns")
	m.set("mmu.tlb.ns_per_insert", insert, "ns")
	m.set("hmc.metacache.ns_per_access", metaCacheDriver(rng, 200_000), "ns")
	m.set("engine.ns_per_at_step", engineDriver(rng, 1_000_000), "ns")
}

// timeReps runs op driverReps times and returns the median nanoseconds per
// operation, with ops operations per call.
func timeReps(ops int, op func()) float64 {
	ns := make([]float64, driverReps)
	for i := range ns {
		t0 := time.Now()
		op()
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(ns)
}

// access is one line request of a driver stream.
type access struct {
	addr  mem.Addr
	write bool
}

// memsimBytes is the span of the module the memsim streams address.
const memsimBytes = 256 << 20

// rowLocalStream is read-mostly (10% writes) and sequential: runs of 128
// consecutive lines, which stay in open rows, from random row-aligned starts.
func rowLocalStream(rng *rand.Rand, n int) []access {
	s := make([]access, n)
	var line uint64
	for i := range s {
		if i%128 == 0 {
			line = uint64(rng.Int63n(memsimBytes/8192)) * (8192 / mem.LineSize)
		}
		s[i] = access{addr: mem.Addr(line * mem.LineSize), write: rng.Intn(10) == 0}
		line++
	}
	return s
}

// scatterStream is 50% writes to uniformly random lines, so nearly every
// access opens a new row.
func scatterStream(rng *rand.Rand, n int) []access {
	s := make([]access, n)
	for i := range s {
		s[i] = access{addr: mem.Addr(rng.Int63n(memsimBytes/mem.LineSize) * mem.LineSize), write: rng.Intn(2) == 0}
	}
	return s
}

// closedLoop keeps driverDepth of n requests in flight, issuing request i
// through issue, and steps sim until every request has completed.
func closedLoop(sim *engine.Sim, n int, issue func(i int, done func())) {
	var issued, completed int
	var next func()
	done := func() {
		completed++
		if issued < n {
			next()
		}
	}
	next = func() {
		i := issued
		issued++
		issue(i, done)
	}
	for issued < driverDepth && issued < n {
		next()
	}
	for completed < n {
		if !sim.Step() {
			panic("perfbench: driver engine drained with requests outstanding")
		}
	}
}

// memsimDriver drives memsim.Module.Access on the paper's NVM part.
func memsimDriver(stream []access) float64 {
	return timeReps(len(stream), func() {
		sim := engine.New()
		mod := memsim.New(sim.Lane(0), memsim.NVMConfig(), 0, memsimBytes)
		closedLoop(sim, len(stream), func(i int, done func()) {
			mod.Access(stream[i].addr, stream[i].write, memsim.PrioDemand, done)
		})
	})
}

// stubBackend completes every line request after backendLatency cycles.
type stubBackend struct{ lane *engine.Lane }

func (s stubBackend) Access(_ mem.Addr, _ bool, _ cache.Meta, done func()) {
	if done != nil {
		s.lane.After(backendLatency, done)
	}
}

// cacheDriver drives cache.Cache.Access on a Table I L2 over a working set
// twice its size (30% writes), so hits, misses and writebacks all occur.
func cacheDriver(rng *rand.Rand, n int) float64 {
	cfg := cache.L2Config()
	stream := make([]access, n)
	for i := range stream {
		stream[i] = access{addr: mem.Addr(rng.Int63n(int64(2*cfg.SizeBytes/mem.LineSize)) * mem.LineSize), write: rng.Intn(10) < 3}
	}
	meta := cache.Meta{PID: 1}
	return timeReps(n, func() {
		sim := engine.New()
		lane := sim.Lane(0)
		c := cache.New(lane, cfg, stubBackend{lane})
		closedLoop(sim, n, func(i int, done func()) { c.Access(stream[i].addr, stream[i].write, meta, done) })
	})
}

// tlbDriver times mmu.TLB.Insert and then Lookup on the Table I L2 TLB over
// VPNs spanning twice its reach.
func tlbDriver(rng *rand.Rand, n int) (lookupNs, insertNs float64) {
	cfg := mmu.L2TLBConfig()
	vpns := make([]mem.VPN, n)
	for i := range vpns {
		vpns[i] = mem.VPN(rng.Intn(2 * cfg.Entries))
	}
	t := mmu.NewTLB(cfg)
	insertNs = timeReps(n, func() {
		for _, v := range vpns {
			t.Insert(1, v, mem.PPN(v))
		}
	})
	var hits int
	lookupNs = timeReps(n, func() {
		for _, v := range vpns {
			if _, ok := t.Lookup(1, v); ok {
				hits++
			}
		}
	})
	if hits == 0 {
		panic("perfbench: TLB driver never hit")
	}
	return lookupNs, insertNs
}

// metaCacheDriver drives hmc.MetaCache.Access with PRTc-like geometry over
// keys spanning four times its capacity (25% dirty), with fills and
// writebacks served by a fixed-latency stub.
func metaCacheDriver(rng *rand.Rand, n int) float64 {
	cfg := hmc.MetaCacheConfig{Name: "bench", Entries: 2048, Ways: 4, HitLatency: 2, EntriesPerLine: 18}
	keys := make([]uint64, n)
	dirty := make([]bool, n)
	for i := range keys {
		keys[i], dirty[i] = uint64(rng.Intn(4*cfg.Entries)), rng.Intn(4) == 0
	}
	region := hmc.MetaRegion{Bytes: 1 << 20, EntrySize: 4}
	return timeReps(n, func() {
		sim := engine.New()
		lane := sim.Lane(0)
		issue := func(_ mem.Addr, _ bool, _ hmc.Priority, done func()) {
			if done != nil {
				lane.After(backendLatency, done)
			}
		}
		mc := hmc.NewMetaCache(lane, cfg, region, issue)
		closedLoop(sim, n, func(i int, done func()) { mc.Access(keys[i], dirty[i], done) })
	})
}

// engineDriver times engine.Sim.At plus Step: 64 self-rescheduling events
// with delays up to 400 cycles, the range of cache and memory latencies.
func engineDriver(rng *rand.Rand, n int) float64 {
	delays := make([]uint64, 1024)
	for i := range delays {
		delays[i] = 1 + uint64(rng.Intn(400))
	}
	return timeReps(n, func() {
		sim := engine.New()
		scheduled := 0
		var tick func()
		tick = func() {
			if scheduled < n {
				sim.At(sim.Now()+delays[scheduled&1023], tick)
				scheduled++
			}
		}
		for i := 0; i < 64; i++ {
			tick()
		}
		for sim.Step() {
		}
	})
}
