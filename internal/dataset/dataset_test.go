package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bwcluster/internal/metric"
	"bwcluster/internal/stats"
)

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []Config{
		{N: 0, MinBW: 1, MaxBW: 10},
		{N: 5, MinBW: 0, MaxBW: 10},
		{N: 5, MinBW: 10, MaxBW: 1},
		{N: 5, MinBW: 1, MaxBW: 10, AccessSigma: -1},
		{N: 5, MinBW: 1, MaxBW: 10, NoiseSigma: -1},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg, rng); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
	if _, err := Generate(HPConfig(), nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestGenerateBasicShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := HPConfig().WithN(50)
	bw, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if bw.N() != 50 {
		t.Fatalf("N = %d", bw.N())
	}
	for i := 0; i < 50; i++ {
		for j := i + 1; j < 50; j++ {
			v := bw.At(i, j)
			if v < cfg.MinBW || v > cfg.MaxBW {
				t.Fatalf("bw(%d,%d)=%v outside [%v,%v]", i, j, v, cfg.MinBW, cfg.MaxBW)
			}
			if bw.At(j, i) != v {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

// Noise-free generation must be an exact tree metric after the rational
// transform (the bottleneck model's ultrametric property).
func TestNoiselessIsTreeMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := HPConfig().WithN(24).WithNoise(0)
	bw, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	d, err := metric.DistanceFromBandwidth(bw, metric.DefaultC)
	if err != nil {
		t.Fatal(err)
	}
	if err := metric.CheckMetric(d, 1e-9); err != nil {
		t.Fatalf("not a metric: %v", err)
	}
	if eps := metric.AvgEpsilonExact(d); eps > 1e-9 {
		t.Errorf("noise-free epsilon = %v, want 0", eps)
	}
}

// More noise means less treeness: epsilon must increase monotonically (in
// expectation; we check a coarse ordering with generous sampling).
func TestNoiseControlsTreeness(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var eps []float64
	for _, sigma := range []float64{0, 0.2, 0.6} {
		bw, err := Generate(HPConfig().WithN(60).WithNoise(sigma), rng)
		if err != nil {
			t.Fatal(err)
		}
		d, err := metric.DistanceFromBandwidth(bw, metric.DefaultC)
		if err != nil {
			t.Fatal(err)
		}
		e, err := metric.AvgEpsilon(d, 4000, rng)
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, e)
	}
	if !(eps[0] < eps[1] && eps[1] < eps[2]) {
		t.Errorf("epsilon not increasing with noise: %v", eps)
	}
}

// The presets must place the paper's query bands inside the 20th-80th
// percentile span of pairwise bandwidth.
func TestPresetPercentiles(t *testing.T) {
	tests := []struct {
		name   string
		cfg    Config
		wantN  int
		bandLo float64
		bandHi float64
	}{
		{name: "HP", cfg: HPConfig(), wantN: 190, bandLo: 15, bandHi: 75},
		{name: "UMD", cfg: UMDConfig(), wantN: 317, bandLo: 30, bandHi: 110},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			bw, err := Generate(tt.cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			if bw.N() != tt.wantN {
				t.Fatalf("N = %d, want %d", bw.N(), tt.wantN)
			}
			vals := bw.Values()
			p10, _ := stats.Percentile(vals, 10)
			p90, _ := stats.Percentile(vals, 90)
			if p10 > tt.bandLo {
				t.Errorf("P10 = %v > band low %v (band not inside distribution)", p10, tt.bandLo)
			}
			if p90 < tt.bandHi {
				t.Errorf("P90 = %v < band high %v", p90, tt.bandHi)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(HPConfig().WithN(30), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(HPConfig().WithN(30), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("non-deterministic at (%d,%d)", i, j)
			}
		}
	}
}

func TestHelpersAndSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bw, err := Generate(HPConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := RandomSubset(bw, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 40 {
		t.Fatalf("subset N = %d", sub.N())
	}
	if _, err := RandomSubset(sub, 41, rng); err == nil {
		t.Error("oversized subset should fail")
	}
	umd, err := Generate(UMDConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if umd.N() != 317 {
		t.Fatalf("UMD N = %d", umd.N())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bw, err := Generate(HPConfig().WithN(12), rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, bw); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 12 {
		t.Fatalf("N = %d", back.N())
	}
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			if math.Abs(back.At(i, j)-bw.At(i, j)) > 1e-9 {
				t.Fatalf("csv round trip mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty csv should fail")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Error("ragged csv should fail")
	}
	if _, err := ReadCSV(strings.NewReader("0,x\ny,0\n")); err == nil {
		t.Error("non-numeric csv should fail")
	}
}

// ReadCSV must symmetrize asymmetric input by averaging, matching the
// paper's preprocessing.
func TestCSVSymmetrizes(t *testing.T) {
	m, err := ReadCSV(strings.NewReader("0,10\n30,0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 20 {
		t.Errorf("symmetrized value = %v, want 20", m.At(0, 1))
	}
}

func TestGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	bw, err := Generate(HPConfig().WithN(15), rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGob(&buf, bw); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		for j := i + 1; j < 15; j++ {
			if back.At(i, j) != bw.At(i, j) {
				t.Fatalf("gob round trip mismatch at (%d,%d)", i, j)
			}
		}
	}
	if _, err := ReadGob(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage gob should fail")
	}
}

func TestSaveLoadFile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bw, err := Generate(HPConfig().WithN(8), rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".csv", ".gob"} {
		path := t.TempDir() + "/m" + ext
		if err := SaveFile(path, bw); err != nil {
			t.Fatal(err)
		}
		back, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.N() != 8 {
			t.Fatalf("%s: N = %d", ext, back.N())
		}
	}
	if err := SaveFile(t.TempDir()+"/m.xyz", bw); err == nil {
		t.Error("unknown extension should fail on save")
	}
	if _, err := LoadFile(t.TempDir() + "/m.xyz"); err == nil {
		t.Error("unknown extension should fail on load")
	}
	if _, err := LoadFile(t.TempDir() + "/missing.csv"); err == nil {
		t.Error("missing file should fail")
	}
}

// Evolving a topology preserves treeness: the induced metric stays an
// exact tree metric when measurement noise is zero.
func TestTopologyEvolvePreservesTreeness(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	topo, err := NewTopology(HPConfig().WithN(20).WithNoise(0), rng)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		if err := topo.Evolve(0.3, rng); err != nil {
			t.Fatal(err)
		}
		bw, err := topo.Matrix(rng)
		if err != nil {
			t.Fatal(err)
		}
		d, err := metric.DistanceFromBandwidth(bw, metric.DefaultC)
		if err != nil {
			t.Fatal(err)
		}
		if eps := metric.AvgEpsilonExact(d); eps > 1e-9 {
			t.Fatalf("step %d: evolved topology lost treeness, eps=%v", step, eps)
		}
	}
	if err := topo.Evolve(-1, rng); err == nil {
		t.Error("negative sigma should fail")
	}
	if err := topo.Evolve(0.1, nil); err == nil {
		t.Error("nil rng should fail")
	}
	if _, err := topo.Matrix(nil); err == nil {
		t.Error("nil rng should fail")
	}
	if _, err := NewTopology(HPConfig(), nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestSingleHost(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	bw, err := Generate(HPConfig().WithN(1), rng)
	if err != nil {
		t.Fatal(err)
	}
	if bw.N() != 1 {
		t.Fatalf("N = %d", bw.N())
	}
}
