package hmc

import (
	"slices"
	"strings"
	"testing"

	"pageseer/internal/check"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

func TestSwapAuditCleanEngine(t *testing.T) {
	sim, e, _ := testEngine(5)
	done := false
	if !e.start(pageSwapOp(0, mem.Addr(256*mem.PageSize), func() { done = true }), SwapMeta{}, 0, 0) {
		t.Fatal("Start rejected a valid op")
	}
	sim.Drain(0)
	if !done {
		t.Fatal("op never completed")
	}
	a := &check.Audit{}
	e.Audit(a)
	if !a.OK() {
		t.Fatalf("clean engine fails audit: %q", a.Violations())
	}
}

// TestSwapAuditCatchesStuckOp wedges a swap by never completing its line
// transfers: the op stays running forever and the audit must report it.
func TestSwapAuditCatchesStuckOp(t *testing.T) {
	sim := engine.New()
	drop := func(addr mem.Addr, write bool, prio Priority, done func()) {}
	e := NewSwapEngine(sim, DefaultSwapEngineConfig(), drop, nil)
	if !e.start(pageSwapOp(0, mem.Addr(256*mem.PageSize), nil), SwapMeta{}, 0, 0) {
		t.Fatal("Start rejected a valid op")
	}
	sim.Drain(0)

	a := &check.Audit{}
	e.Audit(a)
	if a.OK() {
		t.Fatal("audit missed a swap op that never completed")
	}
	joined := strings.Join(a.Violations(), "\n")
	if !strings.Contains(joined, "op") {
		t.Fatalf("violations never mention the stuck op: %q", joined)
	}
	// The forensic description names the wedged op for the crashdump.
	if lines := e.DescribeRunning(); len(lines) != 1 || !strings.Contains(lines[0], "readsLeft") {
		t.Fatalf("DescribeRunning() = %q", lines)
	}
}

func TestMetaCacheAuditCatchesStuckFetch(t *testing.T) {
	sim := engine.New()
	drop := func(addr mem.Addr, write bool, prio Priority, done func()) {}
	region := MetaRegion{Base: 0x1000, Bytes: 1 << 20, EntrySize: 8}
	mc := NewMetaCache(sim, MetaCacheConfig{Name: "T", Entries: 64, Ways: 4, HitLatency: 2}, region, drop)
	got := false
	mc.Access(42, false, func() { got = true })
	sim.Drain(0)
	if got {
		t.Fatal("access completed without a backing store")
	}
	a := &check.Audit{}
	mc.Audit(a)
	if a.OK() {
		t.Fatal("audit missed a metadata fetch that never returned")
	}
}

// TestDescribeRunningStartOrder pins the crashdump's swap-engine section:
// one line per wedged op in start order (not sorted by text), with its
// parked demand waiters counted.
func TestDescribeRunningStartOrder(t *testing.T) {
	sim := engine.New()
	drop := func(addr mem.Addr, write bool, prio Priority, done func()) {}
	e := NewSwapEngine(sim, DefaultSwapEngineConfig(), drop, nil)
	for i, label := range []string{"swap:z", "", "swap:a"} {
		op := pageSwapOp(mem.Addr(2*i)*mem.PageSize, mem.Addr(2*i+1)*mem.PageSize, nil)
		op.Label, op.Tag = label, i
		if !e.start(op, SwapMeta{}, 0, 0) {
			t.Fatal("Start rejected a valid op")
		}
		sim.RunUntil(sim.Now() + uint64(10*(i+1)))
	}
	// Two waiters on an issued line of the second op, one on an unissued
	// line of the third.
	e.TryService(2*mem.PageSize, nil, func() {})
	e.TryService(2*mem.PageSize, nil, func() {})
	e.TryService(5*mem.PageSize+mem.PageSize-mem.LineSize, nil, func() {})
	want := []string{
		`op "swap:z" tag=0 began=0 stage=1/1 readsLeft=128 writesLeft=128 inflight=32 waiters=0`,
		`op "swap" tag=1 began=10 stage=1/1 readsLeft=128 writesLeft=128 inflight=32 waiters=2`,
		`op "swap:a" tag=2 began=30 stage=1/1 readsLeft=128 writesLeft=128 inflight=33 waiters=1`,
	}
	if got := e.DescribeRunning(); !slices.Equal(got, want) {
		t.Fatalf("DescribeRunning() =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
