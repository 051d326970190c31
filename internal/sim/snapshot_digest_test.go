package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

const snapshotDigestPath = "testdata/snapshot_digest.txt"

// snapshotDigestConfig is a sampled four-core mcf run under PageSeer: its
// fast-forward gaps fill the Filter, the PCT and the PTE-line cache, so the
// checkpoint bytes at a gap boundary cover their replacement state.
func snapshotDigestConfig() Config {
	cfg := DefaultConfig()
	cfg.Scheme = SchemePageSeer
	cfg.Workload = "mcf"
	cfg.MaxCores = 4
	cfg.InstrPerCore = 320_000
	cfg.Warmup = 160_000
	cfg.Sample, cfg.SampleWindow, cfg.SampleWarmup = 16, 1000, 1000
	return cfg
}

// TestSnapshotDigest pins the checkpoint bytes across commits: the sha256
// of System.Snapshot at the run's quiesce point 2 must match the committed
// digest. Rewrite it with -update-golden when a change is meant to move the
// machine's state or the checkpoint format, and say why in CHANGES.md.
func TestSnapshotDigest(t *testing.T) {
	sys, err := Build(snapshotDigestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunToQuiesce(func(p int) bool { return p == 2 }); err != ErrPaused {
		t.Fatalf("RunToQuiesce(stop@2) = %v, want ErrPaused", err)
	}
	data, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	if *updateGolden {
		if err := os.WriteFile(snapshotDigestPath, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(snapshotDigestPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to record it)", err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("snapshot sha256 at quiesce point 2 = %s, committed %s (%d bytes)", got, w, len(data))
	}
}
