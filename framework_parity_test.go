package bwcluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"bwcluster/internal/construct"
	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/sim"
)

// The paper's figures come from sim.BuildFramework; they measure the
// System this package ships only if the two build the same thing. From
// the same symmetrized matrix, seed and classes, the framework must
// predict every pair bit for bit as the System does, and its index and
// overlay must give the System's answers.
func TestFrameworkMeasuresSystem(t *testing.T) {
	for _, ds := range []sim.Dataset{sim.HP, sim.UMD} {
		dcfg, err := ds.Config()
		if err != nil {
			t.Fatal(err)
		}
		gen, err := dataset.Generate(dcfg, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		n := gen.N()
		raw := make([][]float64, n)
		for i := range raw {
			raw[i] = slices.Clone(gen.Row(i))
		}
		bw, err := metric.Symmetrize(raw)
		if err != nil {
			t.Fatal(err)
		}
		k, bLo, bHi, err := ds.Band()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2} {
			sys, err := New(raw, WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			classes, err := overlay.ClassesFromBandwidths(sys.Classes(), sys.Constant())
			if err != nil {
				t.Fatal(err)
			}
			fw, err := sim.BuildFramework(bw, sim.FrameworkConfig{Config: construct.Config{
				C: sys.Constant(), Overlay: overlay.Config{Classes: classes},
			}}, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if e := sys.Epoch(); fw.Forest.Epoch() != e || fw.TreeIdx.Epoch() != e {
				t.Errorf("%s seed %d: framework epochs forest %d, index %d; system %d",
					ds, seed, fw.Forest.Epoch(), fw.TreeIdx.Epoch(), e)
			}
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					got, err := sys.PredictBandwidth(u, v)
					if err != nil {
						t.Fatal(err)
					}
					if want := fw.PredictedBandwidth(u, v); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s seed %d: pair (%d,%d) system predicts %v, framework %v", ds, seed, u, v, got, want)
					}
				}
			}
			found, routed := 0, 0
			for _, kk := range []int{2, k / 2, k, 2 * k} {
				for i := 0; i <= 8; i++ {
					b := bLo + (bHi-bLo)*float64(i)/8
					l, err := metric.DistanceForBandwidthConstraint(b, sys.Constant())
					if err != nil {
						t.Fatal(err)
					}
					got, err := sys.FindCluster(kk, b)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fw.TreeIdx.Find(kk, l)
					if err != nil {
						t.Fatal(err)
					}
					if got != nil {
						found++
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s seed %d: FindCluster(%d, %v) = %v, framework index %v", ds, seed, kk, b, got, want)
					}
					for _, start := range []int{0, n / 3, n - 1} {
						// A constraint above every class fails on both sides.
						res, err := sys.Query(start, kk, b)
						fres, ferr := fw.Net.Query(start, kk, l)
						if (err == nil) != (ferr == nil) {
							t.Fatalf("%s seed %d: Query(%d, %d, %v): system error %v, framework %v", ds, seed, start, kk, b, err, ferr)
						}
						if err != nil {
							continue
						}
						if res.Found() {
							routed++
						}
						var class float64
						if fres.Class > 0 {
							class = sys.Constant() / fres.Class
						}
						if !slices.Equal(res.Members, fres.Cluster) || res.Hops != fres.Hops ||
							res.AnsweredBy != fres.Answered || res.Class != class {
							t.Errorf("%s seed %d: Query(%d, %d, %v) = %+v, framework overlay %+v",
								ds, seed, start, kk, b, res, fres)
						}
					}
				}
			}
			if found == 0 || routed == 0 {
				t.Errorf("%s seed %d: the grid found %d central and %d routed clusters; it compares nothing", ds, seed, found, routed)
			}
		}
	}
}
