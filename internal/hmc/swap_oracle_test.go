package hmc

import (
	"math/rand"
	"slices"
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

// refOwners is the map the engine used to keep from source line to the
// op that intercepts it: every start claims its lines, and a completing op
// releases the lines it still owns.
type refOwners map[mem.Addr]*Op

func (o refOwners) start(op *Op) {
	for _, st := range op.Stages {
		for _, tr := range st {
			for off := uint64(0); tr.Src != NoAddr && off < tr.Bytes; off += mem.LineSize {
				o[tr.Src+mem.Addr(off)] = op
			}
		}
	}
}

func (o refOwners) complete(op *Op) {
	for l, owner := range o {
		if owner == op {
			delete(o, l)
		}
	}
}

// checkOwners compares, for every line in [0, span), the op whose record
// intercepts it with the reference.
func checkOwners(t *testing.T, e *SwapEngine, ref refOwners, span mem.Addr) {
	t.Helper()
	for l := mem.Addr(0); l < span; l += mem.LineSize {
		var got *Op
		if ol := e.owner(l); ol != nil {
			got = ol.r.op
		}
		if got != ref[l] || e.Involved(l) != (ref[l] != nil) {
			t.Fatalf("line %#x intercepted by %p (involved %v), reference %p", uint64(l), got, e.Involved(l), ref[l])
		}
	}
}

// TestSwapEngineNewestOpOwnsSharedLine starts two ops that both read page
// 1 and checks interception line by line: page 1 belongs to the op started
// last, and once that op completes page 1 is not intercepted at all, even
// though the older op still runs.
func TestSwapEngineNewestOpOwnsSharedLine(t *testing.T) {
	sim := engine.New()
	pa := &parkIssuer{}
	e := NewSwapEngine(sim, DefaultSwapEngineConfig(), pa.issue, nil)
	p0, p1, p2 := mem.Addr(0), mem.Addr(mem.PageSize), mem.Addr(2*mem.PageSize)
	older := &Op{Stages: []Stage{{{Src: p0, Dst: p1, Bytes: mem.PageSize}, {Src: p1, Dst: p0, Bytes: mem.PageSize}}}}
	newer := &Op{Stages: []Stage{{{Src: p1, Dst: p2, Bytes: mem.PageSize}, {Src: p2, Dst: p1, Bytes: mem.PageSize}}}}
	ref := refOwners{}
	for _, op := range []*Op{older, newer} {
		if !e.start(op, SwapMeta{}, 0, 0) {
			t.Fatal("Start rejected")
		}
		ref.start(op)
	}
	span := mem.Addr(4 * mem.PageSize)
	checkOwners(t, e, ref, span)
	for l := p1; l < p2; l += mem.LineSize {
		if e.owner(l).r.op != newer {
			t.Fatalf("shared line %#x not owned by the newer op", uint64(l))
		}
	}
	// Return the newer op's traffic only: it completes, the older runs on.
	lines := slices.Clone(e.running[1].lines)
	for len(e.running) == 2 {
		for i := len(pa.dones) - 1; i >= 0; i-- {
			if len(e.running) == 2 {
				pa.complete(i)
			}
		}
		if len(e.running) == 2 && len(pa.dones) == 0 {
			t.Fatal("newer op wedged")
		}
	}
	if e.running[0].op != older {
		t.Fatal("the older op completed first")
	}
	// Its line records went back to the pool in start order, so the pool
	// now hands them out last line first.
	l := e.freeLine
	for i := len(lines) - 1; i >= 0; i, l = i-1, l.next {
		if l != lines[i] {
			t.Fatalf("pool record %d is not the op's line %d", len(lines)-1-i, i)
		}
	}
	ref.complete(newer)
	checkOwners(t, e, ref, span)
	for l := p1; l < p2; l += mem.LineSize {
		if e.Involved(l) {
			t.Fatalf("line %#x still intercepted after its owner completed", uint64(l))
		}
	}
	for len(pa.dones) > 0 {
		pa.complete(0)
	}
	ref.complete(older)
	checkOwners(t, e, ref, span)
}

// TestSwapEngineInterceptionMatchesMapReference runs random overlapping
// ops over four pages (whole-page and half-page segments, one or two
// stages), returning their line traffic in random order, and after every
// return compares the interception of every line with the line-owner map.
func TestSwapEngineInterceptionMatchesMapReference(t *testing.T) {
	const pages = 4
	span := mem.Addr(pages * mem.PageSize)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := engine.New()
		pa := &parkIssuer{}
		cfg := DefaultSwapEngineConfig()
		cfg.MaxOps = 1 + rng.Intn(4)
		e := NewSwapEngine(sim, cfg, pa.issue, nil)
		ref := refOwners{}
		started := 0
		for step := 0; step < 300; step++ {
			if e.CanStart() && (len(pa.dones) == 0 || rng.Intn(4) == 0) {
				var op *Op
				op = &Op{Stages: randomStages(rng, pages), OnComplete: func() { ref.complete(op) }}
				if !e.start(op, SwapMeta{}, 0, 0) {
					t.Fatal("Start rejected with a free slot")
				}
				ref.start(op)
				started++
			} else {
				for k := rng.Intn(24); k >= 0 && len(pa.dones) > 0; k-- {
					pa.complete(rng.Intn(len(pa.dones)))
				}
			}
			sim.Drain(0)
			checkOwners(t, e, ref, span)
		}
		for len(pa.dones) > 0 {
			pa.complete(0)
		}
		checkOwners(t, e, ref, span)
		if started < 10 || e.liveLine != 0 || e.liveOp != 0 {
			t.Fatalf("seed %d: %d ops started, %d line and %d op records live", seed, started, e.liveLine, e.liveOp)
		}
	}
}

// randomStages builds one or two stages of copies and buffer fills whose
// sources, whole or half pages out of the first n, never repeat a line.
func randomStages(rng *rand.Rand, n int) []Stage {
	half := mem.Addr(mem.PageSize / 2)
	var used []mem.Addr
	stages := make([]Stage, 1+rng.Intn(2))
	for si := range stages {
		for k := 0; k < 1+rng.Intn(2); k++ {
			src := mem.Addr(rng.Intn(2*n)) * half
			bytes := uint64(half)
			if src%mem.PageSize == 0 && rng.Intn(2) == 0 {
				bytes = mem.PageSize
			}
			clash := false
			for _, u := range used {
				if u >= src && u < src+mem.Addr(bytes) {
					clash = true
				}
			}
			if clash {
				continue
			}
			for off := mem.Addr(0); off < mem.Addr(bytes); off += half {
				used = append(used, src+off)
			}
			dst := NoAddr
			if rng.Intn(3) > 0 {
				dst = 0x100000 + src
			}
			stages[si] = append(stages[si], Transfer{Src: src, Dst: dst, Bytes: bytes})
		}
		if len(stages[si]) == 0 {
			stages[si] = Stage{{Src: NoAddr, Dst: 0x200000, Bytes: mem.LineSize}}
		}
	}
	return stages
}
