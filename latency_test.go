package bwcluster

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bwcluster/internal/cluster"
	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
	"bwcluster/internal/stats"
)

// syntheticLatency builds an n-host latency matrix (ms) with a metro
// structure: short intra-region, long cross-region paths.
func syntheticLatency(t *testing.T, n int, seed int64) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	region := make([]int, n)
	for i := range region {
		region[i] = rng.Intn(4)
	}
	lat := make([][]float64, n)
	for i := range lat {
		lat[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 2 + 10*rng.Float64()
			if region[i] != region[j] {
				v += 40 + 80*rng.Float64()
			}
			lat[i][j], lat[j][i] = v, v
		}
	}
	return lat
}

func TestNewLatencyValidation(t *testing.T) {
	if _, err := NewLatency(nil); err == nil {
		t.Error("empty matrix should fail")
	}
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewLatency([][]float64{{0, v}, {v, 0}}); err == nil {
			t.Errorf("latency %v should fail", v)
		}
	}
	// Averaging finite directions can overflow to +Inf.
	if _, err := NewLatency([][]float64{{0, math.MaxFloat64}, {math.MaxFloat64, 0}}); err == nil {
		t.Error("latency overflowing to +Inf should fail")
	}
	good := [][]float64{{0, 5}, {5, 0}}
	if _, err := NewLatency(good, WithNCut(0)); err == nil {
		t.Error("bad option should fail")
	}
}

func TestLatencyBasicUsage(t *testing.T) {
	lat := syntheticLatency(t, 40, 1)
	sys, err := NewLatency(lat, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Len() != 40 {
		t.Fatalf("Len = %d", sys.Len())
	}
	classes := sys.Classes()
	if len(classes) == 0 {
		t.Fatal("no latency classes")
	}
	for i := 1; i < len(classes); i++ {
		if classes[i] <= classes[i-1] {
			t.Fatalf("classes not ascending: %v", classes)
		}
	}

	// Intra-region clusters exist at small latency bounds.
	bound := classes[len(classes)/2]
	members, err := sys.FindCluster(4, bound)
	if err != nil {
		t.Fatal(err)
	}
	if members == nil {
		t.Fatalf("no cluster at bound %v ms", bound)
	}
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			p, err := sys.PredictLatency(members[i], members[j])
			if err != nil {
				t.Fatal(err)
			}
			if p > bound*(1+1e-9) {
				t.Fatalf("pair (%d,%d) predicted %v ms > bound %v", members[i], members[j], p, bound)
			}
		}
	}

	// Decentralized query: class snaps DOWN (never relaxing the bound).
	res, err := sys.Query(7, 4, bound)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() {
		t.Fatal("decentralized latency query failed")
	}
	if res.Class > bound*(1+1e-9) {
		t.Fatalf("class %v exceeds requested bound %v", res.Class, bound)
	}
	for i := 0; i < len(res.Members); i++ {
		for j := i + 1; j < len(res.Members); j++ {
			p, _ := sys.PredictLatency(res.Members[i], res.Members[j])
			if p > res.Class*(1+1e-9) {
				t.Fatalf("pair predicted %v ms > class %v", p, res.Class)
			}
		}
	}
}

func TestLatencyPredictionQuality(t *testing.T) {
	lat := syntheticLatency(t, 30, 3)
	sys, err := NewLatency(lat, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	// The metro structure is nearly tree-like, so predictions should
	// track measurements within a modest relative error on most pairs.
	within := 0
	total := 0
	for u := 0; u < 30; u++ {
		for v := u + 1; v < 30; v++ {
			p, err := sys.PredictLatency(u, v)
			if err != nil {
				t.Fatal(err)
			}
			m, _ := sys.MeasuredLatency(u, v)
			total++
			if math.Abs(p-m)/m < 0.5 {
				within++
			}
		}
	}
	if frac := float64(within) / float64(total); frac < 0.7 {
		t.Errorf("only %.0f%% of pairs within 50%% relative error", frac*100)
	}
	if _, err := sys.PredictLatency(0, 99); err == nil {
		t.Error("out-of-range host should fail")
	}
	if p, err := sys.PredictLatency(3, 3); err != nil || p != 0 {
		t.Errorf("self latency = %v, %v", p, err)
	}
}

func TestLatencyQueryValidation(t *testing.T) {
	sys, err := NewLatency(syntheticLatency(t, 12, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Query(99, 3, 50); err == nil {
		t.Error("unknown start should fail")
	}
	if _, err := sys.FindCluster(3, -1); err == nil {
		t.Error("negative bound should fail")
	}
	if members, err := sys.FindCluster(3, math.NaN()); err == nil {
		t.Errorf("NaN bound answered %v, want an error", members)
	}
	if res, err := sys.Query(0, 3, math.NaN()); err == nil {
		t.Errorf("NaN bound answered %+v, want an error", res)
	}
	if _, err := sys.Query(0, 3, 0.0001); err == nil {
		t.Error("bound below all classes should fail")
	}
	if _, err := sys.MeasuredLatency(-1, 0); err == nil {
		t.Error("negative host should fail")
	}
}

// On the near-tree synthetic latency dataset, the system's predictions
// track measurements closely — the premise of the paper's latency
// extension.
func TestLatencySystemOnGeneratedDataset(t *testing.T) {
	cfg := dataset.DefaultLatencyConfig()
	cfg.N = 50
	lat, err := dataset.GenerateLatency(cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	raw := make([][]float64, cfg.N)
	for i := range raw {
		raw[i] = make([]float64, cfg.N)
		for j := range raw[i] {
			if i != j {
				raw[i][j] = lat.At(i, j)
			}
		}
	}
	sys, err := NewLatency(raw, WithSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	within := 0
	total := 0
	for u := 0; u < cfg.N; u++ {
		for v := u + 1; v < cfg.N; v++ {
			p, err := sys.PredictLatency(u, v)
			if err != nil {
				t.Fatal(err)
			}
			m, _ := sys.MeasuredLatency(u, v)
			total++
			if math.Abs(p-m)/m < 0.3 {
				within++
			}
		}
	}
	if frac := float64(within) / float64(total); frac < 0.8 {
		t.Errorf("only %.0f%% of pairs within 30%% error on near-tree latency", frac*100)
	}
	// A latency-constrained cluster query succeeds at a moderate bound.
	classes := sys.Classes()
	members, err := sys.FindCluster(5, classes[len(classes)/2])
	if err != nil {
		t.Fatal(err)
	}
	if members == nil {
		t.Error("no cluster at the median latency class")
	}
}

func TestLatencyExplicitClasses(t *testing.T) {
	sys, err := NewLatency(syntheticLatency(t, 20, 6), WithLatencyClasses([]float64{10, 50, 150}))
	if err != nil {
		t.Fatal(err)
	}
	classes := sys.Classes()
	if len(classes) != 3 || classes[0] != 10 || classes[2] != 150 {
		t.Errorf("classes = %v", classes)
	}
	// A 60 ms query snaps down to the 50 ms class.
	res, err := sys.Query(0, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found() && res.Class != 50 {
		t.Errorf("class = %v, want 50", res.Class)
	}
}

// TestNewLatencyMatchesSequentialPipeline builds the latency pipeline
// step by step and sequentially — forest, host-indexed remap, cluster
// index, overlay — and requires NewLatency, on its shared and parallel
// construction path, to give the same answers: every predicted pair and
// a (k, l, start) grid of centralized and decentralized queries.
func TestNewLatencyMatchesSequentialPipeline(t *testing.T) {
	const n = 80 // above the parallel index build's fallback size
	for _, seed := range []int64{1, 2} {
		raw := syntheticLatency(t, n, seed)
		lat, err := metric.Symmetrize(raw)
		if err != nil {
			t.Fatal(err)
		}
		var classes []float64 // the 20th..90th percentiles
		for p := 20.0; p <= 90; p += 10 {
			v, err := stats.Percentile(lat.Values(), p)
			if err != nil {
				t.Fatal(err)
			}
			if len(classes) == 0 || v > classes[len(classes)-1] {
				classes = append(classes, v)
			}
		}
		forest, err := predtree.BuildForest(lat, DefaultC, predtree.SearchAnchor, 3, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		dm, hosts := forest.DistMatrix()
		pred := metric.NewMatrix(n)
		for i := range hosts {
			for j := i + 1; j < len(hosts); j++ {
				pred.Set(hosts[i], hosts[j], dm.Dist(i, j))
			}
		}
		idx, err := cluster.NewIndex(pred)
		if err != nil {
			t.Fatal(err)
		}
		net, err := overlay.NewNetwork(forest, overlay.Config{NCut: overlay.DefaultNCut, Classes: classes})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Converge(0); err != nil {
			t.Fatal(err)
		}

		for _, opts := range [][]Option{{WithSeed(seed)}, {WithSeed(seed), WithParallelism(1)}, {WithSeed(seed), WithParallelism(4)}} {
			sys, err := NewLatency(raw, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sys.Classes(), classes) {
				t.Fatalf("seed %d: classes %v, want %v", seed, sys.Classes(), classes)
			}
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if got, _ := sys.PredictLatency(u, v); got != pred.Dist(u, v) {
						t.Fatalf("seed %d: PredictLatency(%d,%d) = %v, want %v", seed, u, v, got, pred.Dist(u, v))
					}
				}
			}
			found := 0
			bounds := append([]float64{0, 1, 30, 1e9}, classes...)
			for _, k := range []int{2, 3, 5, 8, 20} {
				for _, l := range bounds {
					got, gotErr := sys.FindCluster(k, l)
					want, wantErr := idx.Find(k, l)
					if !slices.Equal(got, want) || (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("seed %d: FindCluster(%d, %v) = %v, %v; want %v, %v", seed, k, l, got, gotErr, want, wantErr)
					}
					for _, start := range []int{0, 17, n - 1} {
						got, gotErr := sys.Query(start, k, l)
						want, wantErr := net.Query(start, k, l)
						wantRes := QueryResult{Members: want.Cluster, Hops: want.Hops, AnsweredBy: want.Answered, Class: want.Class}
						if !reflect.DeepEqual(got, wantRes) || (gotErr == nil) != (wantErr == nil) {
							t.Fatalf("seed %d: Query(%d, %d, %v) = %+v, %v; want %+v, %v", seed, start, k, l, got, gotErr, wantRes, wantErr)
						}
						if got.Found() {
							found++
						}
					}
				}
			}
			if found == 0 {
				t.Fatalf("seed %d: no decentralized query on the grid found a cluster", seed)
			}
		}
	}
}
