package construct

import (
	"math/rand"
	"testing"

	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
	"bwcluster/internal/testutil"
)

func TestWithDefaults(t *testing.T) {
	got := Config{}.WithDefaults()
	want := Config{C: metric.DefaultC, Search: predtree.SearchAnchor, Trees: DefaultTrees,
		Overlay: overlay.Config{NCut: overlay.DefaultNCut}}
	if got.C != want.C || got.Search != want.Search || got.Trees != want.Trees || got.Overlay.NCut != want.Overlay.NCut {
		t.Errorf("zero config resolves to %+v, want %+v", got, want)
	}
	set := Config{C: 7, Search: predtree.SearchFull, Trees: 5, Overlay: overlay.Config{NCut: 2}, Workers: 3}
	if got := set.WithDefaults(); got.C != 7 || got.Search != predtree.SearchFull || got.Trees != 5 ||
		got.Overlay.NCut != 2 || got.Workers != 3 {
		t.Errorf("set fields were overridden: %+v", got)
	}
}

// Build draws from rng exactly what the forest build draws, so a caller
// that keeps drawing (the simulator's Vivaldi baseline) sees the same
// stream as after a bare predtree.BuildForestParallel.
func TestBuildConsumesOnlyTheForestDraws(t *testing.T) {
	m := testutil.NoisyTreeMetric(40, 0.1, rand.New(rand.NewSource(3)))
	for _, workers := range []int{1, 3} {
		rngA, rngB := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
		st, err := Build(m, Config{Workers: workers}, rngA)
		if err != nil {
			t.Fatal(err)
		}
		forest, err := predtree.BuildForestParallel(m, metric.DefaultC, predtree.SearchAnchor, DefaultTrees, rngB, workers)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := rngA.Int63(), rngB.Int63(); a != b {
			t.Fatalf("workers %d: next draw after Build %d, after the forest build alone %d", workers, a, b)
		}
		want, _ := forest.DistMatrix()
		got, hosts := st.Forest.DistMatrix()
		for i := range hosts {
			for j := range hosts {
				if got.Dist(i, j) != want.Dist(i, j) || st.PredDist.Dist(hosts[i], hosts[j]) != want.Dist(i, j) {
					t.Fatalf("workers %d: pair (%d,%d) predicted differently", workers, hosts[i], hosts[j])
				}
			}
		}
		if st.Net != nil {
			t.Errorf("workers %d: an overlay was built without classes", workers)
		}
		if st.TreeIdx == nil || st.PredDist != st.Dist.Matrix() {
			t.Errorf("workers %d: index missing or PredDist is not the snapshot's matrix", workers)
		}
	}
}

func TestDeriveBuildsConvergedOverlayWithClasses(t *testing.T) {
	m := testutil.NoisyTreeMetric(30, 0.1, rand.New(rand.NewSource(4)))
	forest, err := predtree.BuildForestParallel(m, metric.DefaultC, predtree.SearchAnchor, 1, rand.New(rand.NewSource(1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Derive(forest, m.N(), overlay.Config{NCut: 4, Classes: []float64{0.5, 1, 2}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Net == nil || len(st.Net.Hosts()) != m.N() {
		t.Fatal("no overlay over every host")
	}
	if st.Net.Rounds() == 0 {
		t.Error("the overlay was not converged")
	}
	if _, err := Derive(forest, m.N(), overlay.Config{Classes: []float64{1}}, 1); err == nil {
		t.Error("Derive accepted an overlay config without n_cut")
	}
}
