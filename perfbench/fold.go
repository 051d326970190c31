package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the buckets a CPU-profile sample is credited to: the repository
// packages, with hmc and core split by receiver type, plus the garbage
// collector. "other" holds the remaining repository packages (the audit's
// check package among them) and "unattributed" samples with no frame in any
// bucket. The buckets partition the samples.
var layers = []string{
	"engine", "cpu", "workload", "cache", "mmu", "mem",
	"hmc.controller", "hmc.metacache", "hmc.swap", "memsim",
	"core.pageseer", "core.correlator", "core.hpt", "core.ptecache",
	"pom", "mempod", "obs", "sim", "runtime.gc",
	"other", "unattributed",
}

// fold accumulates CPU-profile weight (sampled CPU nanoseconds) per layer.
// Go map operations are credited to the layer that called them and also
// summed in mapWeight, so runtime.map.host_share is the part of the layer
// shares spent inside maps.
type fold struct {
	weight    map[string]int64
	mapWeight int64
	samples   int64
}

func newFold() *fold { return &fold{weight: map[string]int64{}} }

// report sets <layer>.host_share for every layer and trace.samples.
func (f *fold) report(m metrics) {
	var total int64
	for _, w := range f.weight {
		total += w
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(f.weight[l]) / float64(total)
		}
		m.set(l+".host_share", share, "fraction")
	}
	mapShare := 0.0
	if total > 0 {
		mapShare = float64(f.mapWeight) / float64(total)
	}
	m.set("runtime.map.host_share", mapShare, "fraction")
	m.set("trace.samples", float64(f.samples), "count")
}

// add folds one gzipped pprof CPU profile: each sample is credited to the
// innermost frame that names a layer, walking inlined frames innermost first.
func (f *fold) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		layer, inMap := "unattributed", false
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				name := p.name(fn)
				inMap = inMap || isMap(name)
				if l := layerOf(name); l != "" {
					layer = l
					break stack
				}
			}
		}
		f.weight[layer] += s.weight
		if inMap {
			f.mapWeight += s.weight
		}
		f.samples++
	}
	return nil
}

const repoPrefix = "pageseer/internal/"

// layerOf returns the layer a function belongs to, or "" when the function
// is in none and the caller's frame decides.
func layerOf(fn string) string {
	switch {
	case isGC(fn):
		return "runtime.gc"
	case !strings.HasPrefix(fn, repoPrefix):
		return ""
	}
	rest := fn[len(repoPrefix):]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return "other"
	}
	pkg, sym := rest[:dot], rest[dot+1:]
	if i := strings.IndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[:i] // obs/attrib, obs/ledger, obs/pagemap fold into obs
	}
	recv := sym
	if i := strings.IndexByte(recv, '.'); i >= 0 {
		recv = recv[:i]
	}
	recv = strings.TrimSuffix(strings.TrimPrefix(recv, "(*"), ")")
	switch pkg {
	case "hmc":
		switch recv {
		case "MetaRegion", "MetaCacheConfig", "MetaCache", "metaTxn", "fetchTxn", "NewMetaCache":
			return "hmc.metacache"
		case "SwapEngine", "SwapEngineStats", "Op", "Stage", "Transfer", "opLine", "runningOp", "waiter", "lineStatus", "NewSwapEngine":
			return "hmc.swap"
		}
		return "hmc.controller"
	case "core":
		switch recv {
		case "Correlator", "PCTEntry", "successor", "filterEntry", "NewCorrelator":
			return "core.correlator"
		case "HPT", "NewHPT":
			return "core.hpt"
		case "PTECache", "pteFill", "NewPTECache":
			return "core.ptecache"
		}
		return "core.pageseer"
	case "engine", "cpu", "workload", "cache", "mmu", "mem", "memsim", "pom", "mempod", "obs", "sim":
		return pkg
	}
	return "other"
}

func isGC(fn string) bool {
	if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.(*gc") {
		return true
	}
	switch fn {
	case "runtime.markroot", "runtime.markrootBlock", "runtime.scanobject", "runtime.scanblock",
		"runtime.scanstack", "runtime.scanframeworker", "runtime.greyobject", "runtime.findObject",
		"runtime.bgsweep", "runtime.sweepone", "runtime.(*mspan).sweep", "runtime.bgscavenge",
		"runtime.wbBufFlush", "runtime.wbBufFlush1", "runtime.bulkBarrierPreWrite", "runtime.GC":
		return true
	}
	return false
}

func isMap(fn string) bool {
	for _, p := range []string{"internal/runtime/maps.", "runtime.map", "runtime.makemap",
		"runtime.evacuate", "runtime.growWork", "runtime.hashGrow", "runtime.memhash", "runtime.strhash"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// profile is the part of a pprof profile.proto the fold needs.
type profile struct {
	strings   []string
	functions map[uint64]int64    // function id -> name string index
	locations map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	samples   []sample
}

type sample struct {
	locs   []uint64 // leaf first
	weight int64    // sampled CPU nanoseconds
}

func (p *profile) name(fn uint64) string {
	i, ok := p.functions[fn]
	if !ok || i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSample       = 2
	profLocation     = 4
	profFunction     = 5
	profStringTable  = 6
	sampleLocationID = 1
	sampleValue      = 2
	locationID       = 1
	locationLine     = 4
	lineFunctionID   = 1
	functionID       = 1
	functionName     = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{functions: map[uint64]int64{}, locations: map[uint64][]uint64{}}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profStringTable:
			p.strings = append(p.strings, string(data))
		case profFunction:
			var id uint64
			var name int64
			err := fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					return fields(d, func(n int, v uint64, _ []byte) error {
						if n == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profSample:
			var s sample
			var values []uint64
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case sampleLocationID:
					return repeated(&s.locs, v, d)
				case sampleValue:
					return repeated(&values, v, d)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) < 2 {
				return errors.New("cpu profile sample without a cpu/nanoseconds value")
			}
			s.weight = int64(values[1])
			p.samples = append(p.samples, s)
		}
		return nil
	})
	return p, err
}

// repeated appends a repeated varint field given unpacked (data nil) or
// packed.
func repeated(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// fields calls fn for every field of a protobuf message: varints with v set
// and data nil, length-delimited fields with data non-nil. Fixed-width
// fields are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", typ)
		}
	}
	return nil
}
