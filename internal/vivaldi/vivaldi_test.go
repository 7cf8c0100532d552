package vivaldi

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"bwcluster/internal/metric"
	"bwcluster/internal/testutil"
)

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	o := metric.NewMatrix(2)
	bad := []Config{
		{Rounds: 0, Samples: 1, CC: 0.25, CE: 0.25},
		{Rounds: 1, Samples: 0, CC: 0.25, CE: 0.25},
		{Rounds: 1, Samples: 1, CC: 0, CE: 0.25},
		{Rounds: 1, Samples: 1, CC: 0.25, CE: 2},
	}
	for i, cfg := range bad {
		if _, err := Embed(o, cfg, rng); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
	if _, err := Embed(nil, DefaultConfig(), rng); err == nil {
		t.Error("nil oracle should fail")
	}
	if _, err := Embed(o, DefaultConfig(), nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestEmbedTinySpaces(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e, err := Embed(metric.NewMatrix(0), DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if e.N() != 0 {
		t.Errorf("N = %d", e.N())
	}
	e, err = Embed(metric.NewMatrix(1), DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if e.N() != 1 || e.Dist(0, 0) != 0 {
		t.Errorf("single node embedding broken")
	}
}

// Points that genuinely live in 2-d Euclidean space must embed with low
// error: this is Vivaldi's home turf.
func TestEmbedEuclideanData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 40
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	o := metric.FromFunc(n, func(i, j int) float64 { return pts[i].Dist(pts[j]) })
	e, err := Embed(o, DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	med, err := medianRelativeError(e, o)
	if err != nil {
		t.Fatal(err)
	}
	if med > 0.12 {
		t.Errorf("median relative error on Euclidean data = %v, want < 0.12", med)
	}
}

// Tree metrics do not fit 2-d Euclidean space well; the embedding must
// still produce finite coordinates, and its error should exceed the error
// on native Euclidean data (this is the gap the paper exploits).
func TestEmbedTreeMetricHasHigherError(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 40
	tree := testutil.RandomTreeMetric(n, rng)
	eTree, err := Embed(tree, DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c := eTree.Coord(i)
		if math.IsNaN(c.X) || math.IsInf(c.X, 0) || math.IsNaN(c.Y) || math.IsInf(c.Y, 0) {
			t.Fatalf("coordinate %d is not finite: %+v", i, c)
		}
	}
	medTree, err := medianRelativeError(eTree, tree)
	if err != nil {
		t.Fatal(err)
	}
	if medTree <= 0 {
		t.Errorf("tree-metric embedding error = %v, expected positive", medTree)
	}
}

func TestEmbedDeterministic(t *testing.T) {
	o := testutil.RandomTreeMetric(15, rand.New(rand.NewSource(5)))
	e1, err := Embed(o, DefaultConfig(), rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Embed(o, DefaultConfig(), rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < o.N(); i++ {
		if e1.Coord(i) != e2.Coord(i) {
			t.Fatalf("non-deterministic at %d: %+v vs %+v", i, e1.Coord(i), e2.Coord(i))
		}
	}
}

func TestMedianRelativeErrorSizeMismatch(t *testing.T) {
	e := &Embedding{coords: make([]Point, 3)}
	if _, err := medianRelativeError(e, metric.NewMatrix(4)); err == nil {
		t.Error("size mismatch should fail")
	}
}

// Height-vector data (planar distance plus per-node access penalties) is
// fit much better by the height model than by plain 2-d coordinates.
func TestHeightModelFitsAccessLinkData(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 40
	pts := make([]Point, n)
	heights := make([]float64, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
		heights[i] = 10 + rng.Float64()*60
	}
	o := metric.FromFunc(n, func(i, j int) float64 {
		return math.Hypot(pts[i].X-pts[j].X, pts[i].Y-pts[j].Y) + heights[i] + heights[j]
	})
	cfg := DefaultConfig()
	plain, err := Embed(o, cfg, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Height = true
	withHeight, err := Embed(o, cfg, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	medPlain, err := medianRelativeError(plain, o)
	if err != nil {
		t.Fatal(err)
	}
	medHeight, err := medianRelativeError(withHeight, o)
	if err != nil {
		t.Fatal(err)
	}
	if medHeight >= medPlain {
		t.Errorf("height model error %v not below plain %v", medHeight, medPlain)
	}
	if medHeight > 0.15 {
		t.Errorf("height model error %v too large for native height data", medHeight)
	}
	// Heights must stay non-negative.
	for i := 0; i < n; i++ {
		if withHeight.Coord(i).H < 0 {
			t.Fatalf("negative height at %d: %v", i, withHeight.Coord(i).H)
		}
	}
}

func TestUpdateIgnoresNonPositiveRTT(t *testing.T) {
	coords := []Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	errEst := []float64{1, 1}
	rng := rand.New(rand.NewSource(8))
	update(coords, errEst, 0, 1, 0, DefaultConfig(), rng)
	if coords[0].X != 0 || coords[0].Y != 0 {
		t.Error("rtt=0 sample moved the node")
	}
}

// medianRelativeError reports the median of |d_emb - d_real| / d_real
// over all pairs, a standard Vivaldi quality metric.
func medianRelativeError(e *Embedding, o metric.Space) (float64, error) {
	if e.N() != o.N() {
		return 0, fmt.Errorf("vivaldi: size mismatch %d vs %d", e.N(), o.N())
	}
	var errs []float64
	for i := 0; i < o.N(); i++ {
		for j := i + 1; j < o.N(); j++ {
			real := o.Dist(i, j)
			if real <= 0 {
				continue
			}
			errs = append(errs, math.Abs(e.Dist(i, j)-real)/real)
		}
	}
	if len(errs) == 0 {
		return 0, nil
	}
	cp := append([]float64(nil), errs...)
	sort.Float64s(cp)
	return cp[len(cp)/2], nil
}
