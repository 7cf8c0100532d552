package bwcluster

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bwcluster/internal/cluster"
	"bwcluster/internal/metric"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden snapshot file")

// TestGoldenSystemSnapshot pins the full wireVersion-2 System snapshot
// bit for bit, because snapshots are diffed and content-addressed by the
// figure pipeline (DESIGN.md §8d) and replicated between serving shards.
// The golden was last regenerated when systemWire.Workers switched to
// the requested parallelism (0 = default), so the bytes no longer depend
// on the saving host's core count; any deliberate format change
// regenerates it with -update-golden and must keep wireVersion-2 decode
// compatibility (new fields only, with zero values meaning what old
// snapshots meant).
func TestGoldenSystemSnapshot(t *testing.T) {
	path := filepath.Join("testdata", "golden_system_v2.gob")
	raw := sampleBandwidth(t, 30, 11)
	sys, err := New(raw, WithSeed(3), WithNCut(8))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sys.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with -update-golden): %v", path, err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("system snapshot diverged from golden (%d vs %d bytes)", len(blob), len(want))
	}
	// The golden must load and re-save to the identical bytes.
	restored, err := LoadBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("save after load changed the snapshot bytes")
	}
}

// TestGoldenChurnedSystemSnapshot pins the post-churn snapshot bit for
// bit: the same membership history (build, evict ~25% of the hosts,
// re-admit half of them through the incremental insertion path) must
// keep producing the identical wire bytes — Remove's arena free-list and
// the encoder's hole compaction may not leak churn history onto the
// wire. The reloaded system must answer FindCluster identically to an
// index derived directly from the churned forest.
func TestGoldenChurnedSystemSnapshot(t *testing.T) {
	path := filepath.Join("testdata", "golden_system_churned_v2.gob")
	raw := sampleBandwidth(t, 30, 11)
	sys, err := New(raw, WithSeed(3), WithNCut(8))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := metric.DistanceFromBandwidth(sys.bw, sys.c)
	if err != nil {
		t.Fatal(err)
	}
	// Churn the forest underneath the system. The derived query state
	// (pred, treeIdx, net) goes stale, but Save reads only the
	// measurements, the knobs and the forest — Load recomputes the rest.
	removed := []int{2, 5, 9, 13, 17, 21, 25, 29}
	for _, h := range removed {
		if err := sys.forest.Remove(h); err != nil {
			t.Fatalf("remove %d: %v", h, err)
		}
	}
	for _, h := range []int{5, 13, 21, 29} {
		if err := sys.forest.Add(h, dist); err != nil {
			t.Fatalf("re-add %d: %v", h, err)
		}
	}
	blob, err := sys.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with -update-golden): %v", path, err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("churned snapshot diverged from golden (%d vs %d bytes)", len(blob), len(want))
	}
	restored, err := LoadBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("save after load changed the churned snapshot bytes")
	}

	// FindCluster equality: answers from the reloaded system must match
	// an index derived directly from the churned in-memory forest.
	dm, hosts := sys.forest.DistMatrix()
	pred := metric.NewMatrix(sys.bw.N())
	for i := 0; i < sys.bw.N(); i++ {
		for j := i + 1; j < sys.bw.N(); j++ {
			pred.Set(i, j, math.Inf(1)) // departed hosts are unreachable
		}
	}
	for i := range hosts {
		for j := i + 1; j < len(hosts); j++ {
			pred.Set(hosts[i], hosts[j], dm.Dist(i, j))
		}
	}
	ix, err := cluster.NewIndexAt(pred, sys.forest.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		k int
		b float64
	}{{3, 20}, {4, 10}, {6, 5}, {12, 80}} {
		l, err := metric.DistanceForBandwidthConstraint(tc.b, sys.c)
		if err != nil {
			t.Fatal(err)
		}
		wantMembers, err := ix.FindAt(sys.forest.Epoch(), tc.k, l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.FindCluster(tc.k, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantMembers) {
			t.Errorf("FindCluster(%d, %g) = %v after reload, want %v", tc.k, tc.b, got, wantMembers)
		}
	}
	// No answer may name a departed host.
	got, err := restored.FindCluster(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range got {
		switch m {
		case 2, 9, 17, 25: // evicted and never re-admitted
			t.Errorf("FindCluster returned departed host %d", m)
		}
	}
}
