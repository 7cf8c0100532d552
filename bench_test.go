package bwcluster

// The benchmark harness regenerates every figure of the paper's
// evaluation (Figures 3-6; the paper has no numbered tables) at a reduced
// scale per iteration, plus micro-benchmarks for the hot algorithmic
// paths and ablation benchmarks for the design choices called out in
// DESIGN.md. Full paper-scale series come from `go run ./cmd/bwc-sim
// -fig N`.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"bwcluster/internal/cluster"
	"bwcluster/internal/dataset"
	"bwcluster/internal/kdiam"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
	"bwcluster/internal/sim"
	"bwcluster/internal/vivaldi"
)

// --- Figure benchmarks -------------------------------------------------

// BenchmarkFig3Accuracy regenerates the clustering-accuracy experiment
// (WPR vs b for TREE-CENTRAL / TREE-DECENTRAL / EUCL-CENTRAL plus the
// prediction-error CDFs) on the HP-like dataset.
func BenchmarkFig3Accuracy(b *testing.B) {
	cfg := sim.DefaultAccuracyConfig(sim.HP).Scaled(0.05)
	for i := 0; i < b.N; i++ {
		res, err := sim.RunAccuracy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.WPR[sim.TreeCentral], "WPR-tree@bmax")
		b.ReportMetric(last.WPR[sim.EuclCentral], "WPR-eucl@bmax")
	}
}

// BenchmarkFig4Tradeoff regenerates the decentralization-tradeoff
// experiment (RR vs k, centralized vs decentralized).
func BenchmarkFig4Tradeoff(b *testing.B) {
	cfg := sim.DefaultTradeoffConfig(sim.HP).Scaled(0.03)
	for i := 0; i < b.N; i++ {
		res, err := sim.RunTradeoff(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.RR[sim.TreeCentral]-last.RR[sim.TreeDecentral], "RRgap@kmax")
	}
}

// BenchmarkFig5Treeness regenerates the effect-of-treeness experiment
// (WPR vs f_b for datasets of decreasing treeness, raw and normalized).
func BenchmarkFig5Treeness(b *testing.B) {
	cfg := sim.DefaultTreenessConfig(sim.HP).Scaled(0.2)
	cfg.Noises = []float64{0.05, 0.3, 0.6}
	for i := 0; i < b.N; i++ {
		res, err := sim.RunTreeness(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Series[len(res.Series)-1].EpsAvg, "eps-worst")
	}
}

// BenchmarkFig6Scalability regenerates the routing-hops-vs-system-size
// experiment.
func BenchmarkFig6Scalability(b *testing.B) {
	cfg := sim.DefaultScalabilityConfig().Scaled(0.05)
	cfg.NValues = []int{50, 150, 250}
	for i := 0; i < b.N; i++ {
		res, err := sim.RunScalability(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[len(res.Points)-1].AvgHops, "hops@nmax")
	}
}

// --- Micro-benchmarks ---------------------------------------------------

func benchBandwidth(b *testing.B, n int) *metric.Matrix {
	b.Helper()
	bw, err := dataset.Generate(dataset.HPConfig().WithN(n), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return bw
}

func benchDistance(b *testing.B, n int) *metric.Matrix {
	b.Helper()
	d, err := metric.DistanceFromBandwidth(benchBandwidth(b, n), metric.DefaultC)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkAlgorithm1 measures one FindCluster call (the paper's O(n^3)
// centralized algorithm) on a 190-node space.
func BenchmarkAlgorithm1(b *testing.B) {
	d := benchDistance(b, 190)
	l := metric.DefaultC / 40
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.FindCluster(d, 10, l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterIndexBuild measures the index precomputation at n = 190.
func BenchmarkClusterIndexBuild(b *testing.B) {
	d := benchDistance(b, 190)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.NewIndex(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNew measures building a System with default options from a
// 512-host HP-like bandwidth matrix: the metric transforms and default
// classes, the prediction forest and its distance matrix, the cluster
// index, and the overlay converged.
func BenchmarkNew(b *testing.B) {
	raw := benchRaw(b, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewScaling is BenchmarkNew at n = 256, 1024 and 2048: how
// set-up grows with the host count (n = 512 is BenchmarkNew itself).
func BenchmarkNewScaling(b *testing.B) {
	for _, n := range []int{256, 1024, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			raw := benchRaw(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoad measures what a replica pays to restore BenchmarkNew's
// system from its snapshot: decoding the forest and measurements, then
// rebuilding the prediction matrix, cluster index and converged overlay.
func BenchmarkLoad(b *testing.B) {
	sys, err := New(benchRaw(b, 512))
	if err != nil {
		b.Fatal(err)
	}
	blob, err := sys.SaveBytes()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadBytes(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRaw is benchBandwidth as the [][]float64 New takes.
func benchRaw(b *testing.B, n int) [][]float64 {
	b.Helper()
	bw := benchBandwidth(b, n)
	raw := make([][]float64, n)
	for i := range raw {
		raw[i] = slices.Clone(bw.Row(i))
	}
	return raw
}

// BenchmarkClusterIndexQuery measures an indexed (k, l) query at n = 190:
// "repeat" asks the same (k, l) every op, "fresh" a new l every op (the
// serving pattern when clients send continuous bandwidths).
func BenchmarkClusterIndexQuery(b *testing.B) {
	d := benchDistance(b, 190)
	ix, err := cluster.NewIndex(d)
	if err != nil {
		b.Fatal(err)
	}
	l := metric.DefaultC / 40
	b.Run("repeat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.Find(10, l); err != nil {
				b.Fatal(err)
			}
		}
	})
	// fresh counts across the sub-benchmark's runs, so no l repeats.
	fresh := 0
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh++
			if _, err := ix.Find(10, l*(1+float64(fresh)*1e-9)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPredTreeBuild measures framework construction per search mode.
func BenchmarkPredTreeBuild(b *testing.B) {
	d := benchDistance(b, 190)
	for _, tc := range []struct {
		name string
		mode predtree.SearchMode
	}{
		{name: "full", mode: predtree.SearchFull},
		{name: "anchor", mode: predtree.SearchAnchor},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := predtree.Build(d, metric.DefaultC, tc.mode, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(t.Measurements()), "measurements")
			}
		})
	}
}

// BenchmarkLabelDist measures label-based distance computation, the
// operation every peer performs constantly.
func BenchmarkLabelDist(b *testing.B) {
	d := benchDistance(b, 190)
	t, err := predtree.Build(d, metric.DefaultC, predtree.SearchAnchor, nil)
	if err != nil {
		b.Fatal(err)
	}
	la, err := t.Label(10)
	if err != nil {
		b.Fatal(err)
	}
	lb, err := t.Label(150)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := predtree.LabelDist(la, lb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVivaldiEmbed measures the Euclidean baseline's embedding.
func BenchmarkVivaldiEmbed(b *testing.B) {
	d := benchDistance(b, 190)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vivaldi.Embed(d, vivaldi.DefaultConfig(), rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKDiameter measures the Euclidean comparison clustering.
func BenchmarkKDiameter(b *testing.B) {
	d := benchDistance(b, 190)
	rng := rand.New(rand.NewSource(3))
	emb, err := vivaldi.Embed(d, vivaldi.DefaultConfig(), rng)
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]kdiam.Point, emb.N())
	for i := range pts {
		c := emb.Coord(i)
		pts[i] = kdiam.Point{X: c.X, Y: c.Y}
	}
	ix := kdiam.NewIndex(pts)
	l := metric.DefaultC / 40
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Find(10, l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverlayConverge measures bringing the gossip protocol to its
// fixed point on a fresh 190-peer network.
func BenchmarkOverlayConverge(b *testing.B) {
	d := benchDistance(b, 190)
	classes, err := overlay.ClassesFromBandwidths([]float64{15, 25, 35, 45, 55, 65, 75}, metric.DefaultC)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	tree, err := predtree.Build(d, metric.DefaultC, predtree.SearchAnchor, rng.Perm(d.N()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw, err := overlay.NewNetwork(tree, overlay.Config{NCut: overlay.DefaultNCut, Classes: classes})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nw.Converge(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecentralQuery measures one routed query on a converged
// network, from every host in turn and from the hub: the host with the
// largest clustering space, whose local search scans the most pairs.
func BenchmarkDecentralQuery(b *testing.B) {
	d := benchDistance(b, 190)
	classes, err := overlay.ClassesFromBandwidths([]float64{15, 25, 35, 45, 55, 65, 75}, metric.DefaultC)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	tree, err := predtree.Build(d, metric.DefaultC, predtree.SearchAnchor, rng.Perm(d.N()))
	if err != nil {
		b.Fatal(err)
	}
	nw, err := overlay.NewNetwork(tree, overlay.Config{NCut: overlay.DefaultNCut, Classes: classes})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := nw.Converge(0); err != nil {
		b.Fatal(err)
	}
	hosts := nw.Hosts()
	hub, hubSpace := hosts[0], 0
	for _, h := range hosts {
		if space, err := nw.ClusteringSpace(h); err != nil {
			b.Fatal(err)
		} else if len(space) > hubSpace {
			hub, hubSpace = h, len(space)
		}
	}
	l := metric.DefaultC / 35
	for _, c := range []struct {
		name  string
		start func(i int) int
	}{
		{"start=all", func(i int) int { return hosts[i%len(hosts)] }},
		{"start=hub", func(int) int { return hub }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Query(c.start(i), 10, l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benchmarks -----------------------------------------------

// BenchmarkAblationNCut sweeps the n_cut cutoff: larger values raise the
// decentralized return rate for hard queries (reported as the RR metric)
// at higher convergence cost (the timed portion).
func BenchmarkAblationNCut(b *testing.B) {
	d := benchDistance(b, 120)
	classes, err := overlay.ClassesFromBandwidths([]float64{15, 30, 45, 60}, metric.DefaultC)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := predtree.Build(d, metric.DefaultC, predtree.SearchAnchor,
		rand.New(rand.NewSource(6)).Perm(d.N()))
	if err != nil {
		b.Fatal(err)
	}
	for _, nCut := range []int{2, 5, 10, 20, 40} {
		b.Run(benchName("ncut", nCut), func(b *testing.B) {
			rr := 0.0
			for i := 0; i < b.N; i++ {
				nw, err := overlay.NewNetwork(tree, overlay.Config{NCut: nCut, Classes: classes})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := nw.Converge(0); err != nil {
					b.Fatal(err)
				}
				found := 0
				hosts := nw.Hosts()
				const hardK = 30
				for _, start := range hosts[:20] {
					res, err := nw.Query(start, hardK, metric.DefaultC/15)
					if err != nil {
						b.Fatal(err)
					}
					if res.Found() {
						found++
					}
				}
				rr = float64(found) / 20
			}
			b.ReportMetric(rr, "RR@k30")
		})
	}
}

// BenchmarkAblationClassCount sweeps the number of bandwidth classes: the
// CRT grows linearly with it, trading routing-table size for query
// granularity.
func BenchmarkAblationClassCount(b *testing.B) {
	d := benchDistance(b, 120)
	tree, err := predtree.Build(d, metric.DefaultC, predtree.SearchAnchor,
		rand.New(rand.NewSource(7)).Perm(d.N()))
	if err != nil {
		b.Fatal(err)
	}
	for _, count := range []int{2, 4, 8, 16} {
		bws := make([]float64, count)
		for i := range bws {
			bws[i] = 15 + float64(i)*60/float64(count)
		}
		classes, err := overlay.ClassesFromBandwidths(bws, metric.DefaultC)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchName("classes", count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nw, err := overlay.NewNetwork(tree, overlay.Config{NCut: overlay.DefaultNCut, Classes: classes})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := nw.Converge(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationForestSize sweeps the prediction-forest size: more
// trees cost proportionally more to build but cut the bandwidth
// prediction error (reported as the median relative error metric).
func BenchmarkAblationForestSize(b *testing.B) {
	bw := benchBandwidth(b, 120)
	d, err := metric.DistanceFromBandwidth(bw, metric.DefaultC)
	if err != nil {
		b.Fatal(err)
	}
	for _, trees := range []int{1, 3, 5} {
		b.Run(benchName("trees", trees), func(b *testing.B) {
			med := 0.0
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(8))
				forest, err := predtree.BuildForest(d, metric.DefaultC, predtree.SearchAnchor, trees, rng)
				if err != nil {
					b.Fatal(err)
				}
				errsList := sim.RelativeErrors(bw, forest.PredictBandwidth)
				med = medianOf(errsList)
			}
			b.ReportMetric(med, "median-relerr")
		})
	}
}

// BenchmarkAblationVivaldiHeight compares the plain 2-d Euclidean
// baseline against Vivaldi's height-vector variant on the HP-like data:
// heights absorb part of the access-link structure, but the embedding
// stays behind the tree metric (reported as median relative error).
func BenchmarkAblationVivaldiHeight(b *testing.B) {
	bw := benchBandwidth(b, 120)
	d, err := metric.DistanceFromBandwidth(bw, metric.DefaultC)
	if err != nil {
		b.Fatal(err)
	}
	for _, height := range []bool{false, true} {
		name := "plain"
		if height {
			name = "height"
		}
		b.Run(name, func(b *testing.B) {
			med := 0.0
			for i := 0; i < b.N; i++ {
				cfg := vivaldi.DefaultConfig()
				cfg.Height = height
				emb, err := vivaldi.Embed(d, cfg, rand.New(rand.NewSource(9)))
				if err != nil {
					b.Fatal(err)
				}
				errsList := sim.RelativeErrors(bw, func(u, v int) float64 {
					dd := emb.Dist(u, v)
					if dd <= 0 {
						return bw.At(u, v)
					}
					return metric.DefaultC / dd
				})
				med = medianOf(errsList)
			}
			b.ReportMetric(med, "median-relerr")
		})
	}
}

// BenchmarkAblationMaxClusterSize compares the direct O(n^3) max-size
// scan against the paper's binary-search-over-FindCluster strategy.
func BenchmarkAblationMaxClusterSize(b *testing.B) {
	d := benchDistance(b, 120)
	l := metric.DefaultC / 30
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster.MaxClusterSize(d, l)
		}
	})
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cluster.MaxClusterSizeBinary(d, l); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchName(prefix string, v int) string {
	return fmt.Sprintf("%s-%02d", prefix, v)
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}
