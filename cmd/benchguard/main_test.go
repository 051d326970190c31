package main

import (
	"math"
	"testing"
)

// TestLoadCommittedBench pins that benchguard reads the committed
// BENCH_campaign.json, including per-run fields it no longer models, and
// that its matching keeps detailed and sampled entries apart.
func TestLoadCommittedBench(t *testing.T) {
	b, err := load("../../BENCH_campaign.json")
	if err != nil {
		t.Fatal(err)
	}
	var detailed, sampled campaignBench
	keys := map[string]bool{}
	for _, m := range b.Runs {
		if m.EventsPerSec <= 0 || m.WallSeconds <= 0 {
			t.Fatalf("%s: empty throughput record %+v", key(m), m)
		}
		if keys[key(m)] {
			t.Fatalf("duplicate key %s", key(m))
		}
		keys[key(m)] = true
		if m.SampleWindows > 0 {
			sampled.Runs = append(sampled.Runs, m)
		} else {
			detailed.Runs = append(detailed.Runs, m)
		}
	}
	if len(detailed.Runs) == 0 || len(sampled.Runs) == 0 {
		t.Fatalf("want both kinds of entries, got %d detailed and %d sampled", len(detailed.Runs), len(sampled.Runs))
	}

	rows, g := compare(b, b, false)
	if len(rows) != len(b.Runs) || math.Abs(g-1) > 1e-12 {
		t.Fatalf("self-comparison: %d of %d runs matched, geomean %v", len(rows), len(b.Runs), g)
	}
	// A sampled-only head matches only the sampled baseline entries, each
	// against itself; a detailed-only head matches no sampled entry.
	for _, half := range []campaignBench{sampled, detailed} {
		rows, g := compare(b, half, false)
		if len(rows) != len(half.Runs) || math.Abs(g-1) > 1e-12 {
			t.Fatalf("half comparison: %d of %d runs matched, geomean %v", len(rows), len(half.Runs), g)
		}
	}
	if rows, _ := compare(detailed, sampled, false); len(rows) != 0 {
		t.Fatalf("sampled head matched %d detailed baseline entries", len(rows))
	}
	// -wall mode matches sampled head runs against the detailed baseline.
	if rows, g := compare(b, sampled, true); len(rows) != len(sampled.Runs) || g <= 1 {
		t.Fatalf("wall comparison: %d of %d runs matched, speedup %v", len(rows), len(sampled.Runs), g)
	}
}
