package sim

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"bwcluster/internal/construct"
	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/stats"
)

func TestDatasetHelpers(t *testing.T) {
	for _, ds := range []Dataset{HP, UMD} {
		cfg, err := ds.Config()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.N == 0 {
			t.Errorf("%s: empty config", ds)
		}
		k, lo, hi, err := ds.Band()
		if err != nil {
			t.Fatal(err)
		}
		if k < 2 || lo <= 0 || hi <= lo {
			t.Errorf("%s: band k=%d lo=%v hi=%v", ds, k, lo, hi)
		}
	}
	if _, err := Dataset("bogus").Config(); err == nil {
		t.Error("bogus dataset should fail")
	}
	if _, _, _, err := Dataset("bogus").Band(); err == nil {
		t.Error("bogus dataset band should fail")
	}
}

func smallBW(t *testing.T, n int) *metric.Matrix {
	t.Helper()
	bw, err := dataset.Generate(dataset.HPConfig().WithN(n), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return bw
}

func TestBuildFramework(t *testing.T) {
	bw := smallBW(t, 30)
	classes, err := overlay.ClassesFromBandwidths([]float64{20, 40, 60}, 100)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := BuildFramework(bw, FrameworkConfig{
		Config: construct.Config{C: 100, Overlay: overlay.Config{Classes: classes}}, Euclid: true},
		rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if fw.Forest.Len() != 30 || fw.PredDist.N() != 30 {
		t.Fatalf("sizes: forest=%d pred=%d", fw.Forest.Len(), fw.PredDist.N())
	}
	if fw.Net == nil || fw.Emb == nil || fw.EuclIdx == nil || fw.TreeIdx == nil {
		t.Fatal("framework components missing")
	}
	// One snapshot: PredDist is its matrix, and the overlay (whose field
	// is unexported in its package) reads the same snapshot.
	if fw.PredDist != fw.Dist.Matrix() {
		t.Error("PredDist is not the snapshot's matrix")
	}
	if reflect.ValueOf(fw.Net).Elem().FieldByName("dist").Pointer() != reflect.ValueOf(fw.Dist).Pointer() {
		t.Error("the overlay reads another snapshot")
	}
	if bwp := fw.PredictedBandwidth(0, 1); bwp <= 0 {
		t.Errorf("predicted bandwidth %v", bwp)
	}
	if _, err := fw.EuclideanBandwidth(0, 1); err != nil {
		t.Error(err)
	}
	// Without Euclid the baseline accessor must fail.
	fw2, err := BuildFramework(bw, FrameworkConfig{Config: construct.Config{C: 100}}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if fw2.Net != nil || fw2.Emb != nil {
		t.Error("unrequested components were built")
	}
	if _, err := fw2.EuclideanBandwidth(0, 1); err == nil {
		t.Error("EuclideanBandwidth without embedding should fail")
	}
	if _, err := BuildFramework(bw, FrameworkConfig{}, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestWrongPairsAndAccumulators(t *testing.T) {
	bw := metric.NewMatrix(3)
	bw.Set(0, 1, 50)
	bw.Set(0, 2, 10)
	bw.Set(1, 2, 30)
	w, total := WrongPairs(bw, []int{0, 1, 2}, 20)
	if w != 1 || total != 3 {
		t.Errorf("WrongPairs = %d/%d, want 1/3", w, total)
	}
	var acc WPRAccumulator
	if acc.Value() != 0 {
		t.Error("empty accumulator should be 0")
	}
	acc.Add(bw, []int{0, 1, 2}, 20)
	acc.Add(bw, []int{0, 1}, 20)
	if acc.total != 4 || acc.Value() != 0.25 {
		t.Errorf("acc = %v over %d", acc.Value(), acc.total)
	}
	var rate RateAccumulator
	if rate.Value() != 0 {
		t.Error("empty rate should be 0")
	}
	rate.Add(true)
	rate.Add(false)
	if rate.total != 2 || rate.Value() != 0.5 {
		t.Errorf("rate = %v over %d", rate.Value(), rate.total)
	}
}

func TestRelativeErrorsPerfectPredictor(t *testing.T) {
	bw := smallBW(t, 10)
	errsList := RelativeErrors(bw, func(u, v int) float64 { return bw.At(u, v) })
	for _, e := range errsList {
		if e != 0 {
			t.Fatalf("perfect predictor error %v", e)
		}
	}
	if len(errsList) != 45 {
		t.Errorf("got %d errors, want 45", len(errsList))
	}
}

func TestDownsampleCDF(t *testing.T) {
	bw := smallBW(t, 20)
	points, err := stats.CDF(RelativeErrors(bw, func(u, v int) float64 { return bw.At(u, v) * 1.1 }))
	if err != nil {
		t.Fatal(err)
	}
	cdf := DownsampleCDF(points, 10)
	if len(cdf) > 10 {
		t.Errorf("cdf has %d points, want <= 10", len(cdf))
	}
	if cdf[len(cdf)-1].F != 1 {
		t.Errorf("cdf must end at 1, got %v", cdf[len(cdf)-1].F)
	}
}

func TestLinspaceAndIntRange(t *testing.T) {
	ls := linspace(0, 10, 3)
	if len(ls) != 3 || ls[0] != 0 || ls[1] != 5 || ls[2] != 10 {
		t.Errorf("linspace = %v", ls)
	}
	if got := linspace(7, 9, 1); len(got) != 1 || got[0] != 7 {
		t.Errorf("linspace n=1 = %v", got)
	}
	ir := intRange(2, 10, 5)
	if ir[0] != 2 || ir[len(ir)-1] != 10 {
		t.Errorf("intRange = %v", ir)
	}
	if got := intRange(5, 5, 3); len(got) != 1 || got[0] != 5 {
		t.Errorf("degenerate intRange = %v", got)
	}
}

// scaleInt floors at 1 and saturates at math.MaxInt: a non-finite or
// huge factor must never wrap to a negative count (which the floor
// would then turn into a silent one-round run).
func TestScaleIntSaturates(t *testing.T) {
	for _, c := range []struct {
		v    int
		f    float64
		want int
	}{
		{10, 1, 10},
		{10, 0.55, 5},
		{10, 0.001, 1},
		{10, 0, 1},
		{10, -3, 1},
		{10, math.NaN(), 1},
		{10, math.Inf(-1), 1},
		{10, math.Inf(1), math.MaxInt},
		{10, 1e30, math.MaxInt},
		{math.MaxInt, 2, math.MaxInt},
	} {
		if got := scaleInt(c.v, c.f); got != c.want {
			t.Errorf("scaleInt(%d, %v) = %d, want %d", c.v, c.f, got, c.want)
		}
	}
}

// Fig. 3 shape: WPR does not decrease with b overall; the tree approaches
// beat the Euclidean baseline at the top of the band; centralized and
// decentralized tree clustering are comparable; prediction error CDFs put
// TREE above EUCL (smaller errors).
func TestAccuracyShape(t *testing.T) {
	cfg := DefaultAccuracyConfig(HP).Scaled(0.15)
	cfg.Seed = 11
	res, err := RunAccuracy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 7 {
		t.Fatalf("points = %d", len(res.Points))
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	for _, a := range []Approach{TreeCentral, TreeDecentral, EuclCentral} {
		if last.WPR[a] < first.WPR[a] {
			t.Errorf("%s: WPR decreased across the band: %v -> %v", a, first.WPR[a], last.WPR[a])
		}
	}
	if last.WPR[EuclCentral] <= last.WPR[TreeCentral] {
		t.Errorf("EUCL (%v) should exceed TREE-CENTRAL (%v) at the hardest constraint",
			last.WPR[EuclCentral], last.WPR[TreeCentral])
	}
	// Tree error CDF dominates (higher F at the median error level).
	treeCDF, euclCDF := res.ErrCDF[TreeCentral], res.ErrCDF[EuclCentral]
	if len(treeCDF) == 0 || len(euclCDF) == 0 {
		t.Fatal("missing error CDFs")
	}
	fTree := cdfValueAt(treeCDF, 0.5)
	fEucl := cdfValueAt(euclCDF, 0.5)
	if fTree <= fEucl {
		t.Errorf("tree CDF at err=0.5 (%v) should exceed euclid's (%v)", fTree, fEucl)
	}
}

// cdfValueAt evaluates a stepwise CDF at x.
func cdfValueAt(points []stats.CDFPoint, x float64) float64 {
	f := 0.0
	for _, p := range points {
		if p.X > x {
			break
		}
		f = p.F
	}
	return f
}

func TestAccuracyValidation(t *testing.T) {
	cfg := DefaultAccuracyConfig(HP)
	cfg.Rounds = 0
	if _, err := RunAccuracy(cfg); err == nil {
		t.Error("rounds=0 should fail")
	}
	cfg = DefaultAccuracyConfig("bogus")
	if _, err := RunAccuracy(cfg); err == nil {
		t.Error("bogus dataset should fail")
	}
}

// Fig. 4 shape: RR decreases with k; decentralized never exceeds
// centralized; they coincide at small k; decentralized collapses for very
// large k.
func TestTradeoffShape(t *testing.T) {
	cfg := DefaultTradeoffConfig(HP).Scaled(0.12)
	cfg.Seed = 12
	res, err := RunTradeoff(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Points[0]
	last := res.Points[len(res.Points)-1]
	if first.RR[TreeCentral] < 0.9 || first.RR[TreeDecentral] < 0.9 {
		t.Errorf("k=2 should almost always succeed: %v / %v",
			first.RR[TreeCentral], first.RR[TreeDecentral])
	}
	if last.RR[TreeCentral] > first.RR[TreeCentral] {
		t.Error("centralized RR should fall with k")
	}
	for _, p := range res.Points {
		if p.RR[TreeDecentral] > p.RR[TreeCentral]+0.05 {
			t.Errorf("k=%d: decentralized RR %v above centralized %v",
				p.K, p.RR[TreeDecentral], p.RR[TreeCentral])
		}
	}
	// At the hardest queries the decentralization penalty must be visible:
	// a clear RR gap below the centralized algorithm.
	if gap := last.RR[TreeCentral] - last.RR[TreeDecentral]; gap < 0.1 {
		t.Errorf("no decentralization gap at k=%d: central=%v decentral=%v",
			last.K, last.RR[TreeCentral], last.RR[TreeDecentral])
	}
}

func TestTradeoffValidation(t *testing.T) {
	cfg := DefaultTradeoffConfig(HP)
	cfg.QueriesPerK = 0
	if _, err := RunTradeoff(cfg); err == nil {
		t.Error("QueriesPerK=0 should fail")
	}
	if _, err := RunTradeoff(TradeoffConfig{Dataset: "bogus"}); err == nil {
		t.Error("bogus dataset should fail")
	}
}

// Fig. 5 shape: with paired datasets, WPR (averaged over the mid-density
// band) increases with epsilon_avg, and so does the normalized WPR.
func TestTreenessShape(t *testing.T) {
	cfg := DefaultTreenessConfig(HP).Scaled(0.5)
	cfg.Noises = []float64{0.02, 0.25, 0.6}
	cfg.Seed = 13
	res, err := RunTreeness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	mid := func(s TreenessSeries) (wpr float64) {
		cnt := 0
		for _, p := range s.Points {
			if p.FB > 0.2 && p.FB < 0.8 {
				wpr += p.WPR
				cnt++
			}
		}
		if cnt > 0 {
			wpr /= float64(cnt)
		}
		return wpr
	}
	prevEps, prevWPR := -1.0, -1.0
	for _, s := range res.Series {
		if s.EpsAvg <= prevEps {
			t.Fatalf("epsilon not increasing with noise: %v after %v", s.EpsAvg, prevEps)
		}
		w := mid(s)
		if w < prevWPR {
			t.Fatalf("WPR not monotone in treeness: %v after %v", w, prevWPR)
		}
		prevEps, prevWPR = s.EpsAvg, w
	}
	// The normalization must preserve the ordering too.
	lo, hi := res.Series[0], res.Series[len(res.Series)-1]
	midNorm := func(s TreenessSeries) (v float64) {
		cnt := 0
		for _, p := range s.Points {
			if p.FB > 0.2 && p.FB < 0.8 {
				v += p.WPRNorm
				cnt++
			}
		}
		if cnt > 0 {
			v /= float64(cnt)
		}
		return v
	}
	if midNorm(hi) <= midNorm(lo) {
		t.Errorf("normalized WPR ordering lost: %v <= %v", midNorm(hi), midNorm(lo))
	}
}

func TestTreenessValidation(t *testing.T) {
	cfg := DefaultTreenessConfig(HP)
	cfg.Rounds = 0
	if _, err := RunTreeness(cfg); err == nil {
		t.Error("rounds=0 should fail")
	}
	if _, err := RunTreeness(TreenessConfig{Base: "bogus"}); err == nil {
		t.Error("bogus dataset should fail")
	}
}

// Fig. 6 shape: average hops are small (single digits) and grow slowly
// with n; return rates stay high for these moderate queries.
func TestScalabilityShape(t *testing.T) {
	cfg := DefaultScalabilityConfig().Scaled(0.1)
	cfg.NValues = []int{50, 150, 250}
	cfg.Seed = 14
	res, err := RunScalability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.AvgHops < 0 || p.AvgHops > 8 {
			t.Errorf("n=%d: avg hops %v outside the small-hop regime", p.N, p.AvgHops)
		}
		if p.RR < 0.5 {
			t.Errorf("n=%d: RR %v unexpectedly low", p.N, p.RR)
		}
	}
	if res.Points[0].AvgHops > res.Points[len(res.Points)-1].AvgHops+0.5 {
		t.Errorf("hops should not shrink substantially with n: %v -> %v",
			res.Points[0].AvgHops, res.Points[len(res.Points)-1].AvgHops)
	}
}

func TestScalabilityValidation(t *testing.T) {
	cfg := DefaultScalabilityConfig()
	cfg.DatasetsPerN = 0
	if _, err := RunScalability(cfg); err == nil {
		t.Error("DatasetsPerN=0 should fail")
	}
	cfg = DefaultScalabilityConfig()
	cfg.NValues = []int{100000}
	cfg.DatasetsPerN = 1
	if _, err := RunScalability(cfg); err == nil {
		t.Error("oversized subset should fail")
	}
	cfg = DefaultScalabilityConfig()
	cfg.NValues = nil
	if _, err := RunScalability(cfg); err == nil {
		t.Error("no system sizes should fail")
	}
}

// n_cut ablation: a larger cutoff can only help the decentralized return
// rate (checked on aggregate over the sweep).
func TestNCutAblationOrdering(t *testing.T) {
	base := DefaultTradeoffConfig(HP).Scaled(0.06)
	base.Seed = 21
	res, err := RunNCutAblation(base, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 2 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	sum := func(c NCutCurve) float64 {
		total := 0.0
		for _, p := range c.Points {
			total += p.RR[TreeDecentral]
		}
		return total
	}
	if sum(res.Curves[1]) < sum(res.Curves[0]) {
		t.Errorf("n_cut=16 aggregate RR %v below n_cut=4's %v",
			sum(res.Curves[1]), sum(res.Curves[0]))
	}
	if _, err := RunNCutAblation(base, []int{0}); err == nil {
		t.Error("n_cut=0 should fail")
	}
}

func TestTreesAblationRuns(t *testing.T) {
	base := DefaultAccuracyConfig(HP).Scaled(0.05)
	base.Seed = 22
	res, err := RunTreesAblation(base, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 2 || len(res.Curves[0].Points) == 0 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	if _, err := RunTreesAblation(base, []int{0}); err == nil {
		t.Error("trees=0 should fail")
	}
}

// Dynamics: once conditions drift, the framework that keeps rebuilding
// from fresh measurements out-predicts the stale one (aggregate WPR over
// the post-drift epochs).
func TestDynamicsRefreshBeatsStale(t *testing.T) {
	cfg := DefaultDynamicsConfig(HP)
	cfg.Seed = 23
	res, err := RunDynamics(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != dynamicsEpochs {
		t.Fatalf("points = %d", len(res.Points))
	}
	first := res.Points[0]
	if first.WPRStale != first.WPRRefreshed {
		t.Errorf("epoch 0 must be identical: %v vs %v", first.WPRStale, first.WPRRefreshed)
	}
	staleSum, freshSum := 0.0, 0.0
	for _, p := range res.Points[1:] {
		staleSum += p.WPRStale
		freshSum += p.WPRRefreshed
	}
	if staleSum <= freshSum {
		t.Errorf("stale aggregate WPR %v not above refreshed %v", staleSum, freshSum)
	}
}

func TestDynamicsValidation(t *testing.T) {
	cfg := DefaultDynamicsConfig(HP)
	cfg.QueriesPerEpoch = 0
	if _, err := RunDynamics(cfg); err == nil {
		t.Error("QueriesPerEpoch=0 should fail")
	}
	if _, err := RunDynamics(DynamicsConfig{Dataset: "bogus", N: 1, QueriesPerEpoch: 1}); err == nil {
		t.Error("bogus dataset should fail")
	}
}

// Construction cost: the decentralized anchor search must measure
// strictly less per join than the full scan, at every size, with the
// advantage not shrinking as the system grows.
func TestConstructionCostShape(t *testing.T) {
	cfg := DefaultConstructionConfig().Scaled(0.4)
	cfg.NValues = []int{60, 240}
	cfg.Seed = 24
	res, err := RunConstructionCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.AnchorPerJoin >= p.FullPerJoin {
			t.Errorf("n=%d: anchor %v >= full %v", p.N, p.AnchorPerJoin, p.FullPerJoin)
		}
	}
	small, large := res.Points[0], res.Points[1]
	if large.AnchorPerJoin/large.FullPerJoin > small.AnchorPerJoin/small.FullPerJoin*1.3 {
		t.Errorf("anchor advantage shrinks with n: ratios %v -> %v",
			small.AnchorPerJoin/small.FullPerJoin, large.AnchorPerJoin/large.FullPerJoin)
	}
	cfg.Rounds = 0
	if _, err := RunConstructionCost(cfg); err == nil {
		t.Error("rounds=0 should fail")
	}
	cfg = DefaultConstructionConfig()
	cfg.NValues = []int{10000}
	if _, err := RunConstructionCost(cfg); err == nil {
		t.Error("oversized subset should fail")
	}
}

// SWORD comparison: the exhaustive baseline's cost must grow with k and
// its budget-bounded RR must fall below the tree approach's for large k.
func TestSwordComparisonShape(t *testing.T) {
	cfg := DefaultSwordConfig(HP).Scaled(0.5)
	cfg.Seed = 25
	res, err := RunSwordComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Points[0]
	last := res.Points[len(res.Points)-1]
	if first.SwordRR < 0.99 || first.SwordSteps > 50 {
		t.Errorf("easy queries should be cheap for SWORD: %+v", first)
	}
	if last.SwordSteps <= first.SwordSteps*5 {
		t.Errorf("SWORD cost did not grow: %v -> %v", first.SwordSteps, last.SwordSteps)
	}
	if last.SwordExhausted == 0 {
		t.Error("hard queries never exhausted the budget")
	}
	// The baseline never reports wrong pairs by construction; the tree
	// approach trades a small WPR for answering more queries at large k.
	if last.TreeRR < last.SwordRR {
		t.Errorf("tree RR %v below SWORD's %v at k=%d", last.TreeRR, last.SwordRR, last.K)
	}
	if res.TreeMeasurements >= float64(res.SwordMeasurements) {
		t.Errorf("framework measured %v distinct pairs, SWORD needs %d",
			res.TreeMeasurements, res.SwordMeasurements)
	}
	cfg.Rounds = 0
	if _, err := RunSwordComparison(cfg); err == nil {
		t.Error("rounds=0 should fail")
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	cfg := DefaultTreenessConfig(HP).Scaled(0.1)
	cfg.Noises = []float64{0.1}
	a, err := RunTreeness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTreeness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Series[0].Points {
		if a.Series[0].Points[i] != b.Series[0].Points[i] {
			t.Fatalf("treeness not deterministic at point %d", i)
		}
	}
}

// The fan-out over independent series (ablation curves, construction
// sizes, treeness noise levels) runs one worker per GOMAXPROCS and must
// not change any result: sequential and 4-way runs are deeply equal.
func TestFanOutNeverChangesResults(t *testing.T) {
	ncut := DefaultTradeoffConfig(HP).Scaled(0.02)
	cons := DefaultConstructionConfig().Scaled(0.2)
	cons.NValues = []int{50, 100, 150}
	tree := DefaultTreenessConfig(HP).Scaled(0.1)
	tree.Noises = []float64{0.1, 0.3}
	runAll := func() []any {
		a, err := RunNCutAblation(ncut, []int{4, 8, 16})
		if err != nil {
			t.Fatal(err)
		}
		c, err := RunConstructionCost(cons)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := RunTreeness(tree)
		if err != nil {
			t.Fatal(err)
		}
		return []any{a, c, tr}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq := runAll()
	runtime.GOMAXPROCS(4)
	par := runAll()
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("results differ between GOMAXPROCS=1 and 4:\n%+v\n%+v", seq, par)
	}
}
