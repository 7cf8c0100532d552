// Package dataset generates and stores the bandwidth matrices the
// experiments run on.
//
// The paper evaluates on two measured PlanetLab datasets (HP-PlanetLab,
// 190 nodes, and UMD-PlanetLab, 317 nodes) that are not publicly
// distributable. This package substitutes the access-link bottleneck
// model that the paper itself cites (Sec. II-C, [20]) as the explanation
// for why Internet bandwidth is nearly a tree metric: hosts hang off a
// random core topology tree, every edge has a capacity, and the bandwidth
// between two hosts is the minimum capacity along their tree path. That
// model yields an exact tree metric (the minimax path distance is an
// ultrametric); an independent multiplicative lognormal noise factor per
// pair then recreates the imperfect treeness (small positive epsilon) of
// real measurements. Two presets calibrate the access-link capacity
// distribution so the paper's query bands (15-75 Mbps for HP-like, 30-110
// for UMD-like) fall between the 20th and 80th percentile of pairwise
// bandwidth, as in the paper's setup.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"bwcluster/internal/metric"
)

// Config parameterizes the synthetic bandwidth generator.
type Config struct {
	// N is the number of hosts.
	N int
	// AccessMu and AccessSigma are the lognormal parameters (of ln Mbps)
	// of host access-link capacities.
	AccessMu, AccessSigma float64
	// CoreBoost is added to AccessMu for internal (core) edges, and
	// CoreSigma is their (smaller) lognormal sigma: cores are
	// overprovisioned relative to access links, which keeps the bottleneck
	// at the edge as in the paper's model [20].
	CoreBoost, CoreSigma float64
	// MinBW and MaxBW clamp all capacities (Mbps).
	MinBW, MaxBW float64
	// NoiseSigma is the lognormal sigma of the per-pair multiplicative
	// noise; 0 produces an exact tree metric.
	NoiseSigma float64
}

func (c Config) validate() error {
	if c.N < 1 {
		return fmt.Errorf("dataset: N must be >= 1, got %d", c.N)
	}
	if c.AccessSigma < 0 || c.NoiseSigma < 0 || c.CoreSigma < 0 {
		return fmt.Errorf("dataset: sigmas must be non-negative")
	}
	if c.MinBW <= 0 || c.MaxBW < c.MinBW {
		return fmt.Errorf("dataset: need 0 < MinBW <= MaxBW, got [%v,%v]", c.MinBW, c.MaxBW)
	}
	return nil
}

// HPConfig is the 190-node preset standing in for HP-PlanetLab. The
// lognormal parameters put the 20th/80th percentiles of pairwise
// bandwidth near 15 and 75 Mbps.
func HPConfig() Config {
	return Config{
		N:           190,
		AccessMu:    4.17,
		AccessSigma: 1.17,
		CoreBoost:   2.0,
		CoreSigma:   0.35,
		MinBW:       2,
		MaxBW:       600,
		NoiseSigma:  0.15,
	}
}

// UMDConfig is the 317-node preset standing in for UMD-PlanetLab
// (20th/80th percentiles near 30 and 110 Mbps).
func UMDConfig() Config {
	return Config{
		N:           317,
		AccessMu:    4.582,
		AccessSigma: 0.945,
		CoreBoost:   2.0,
		CoreSigma:   0.35,
		MinBW:       3,
		MaxBW:       800,
		NoiseSigma:  0.12,
	}
}

// WithN returns a copy of c with N hosts.
func (c Config) WithN(n int) Config {
	c.N = n
	return c
}

// WithNoise returns a copy of c with the given treeness noise.
func (c Config) WithNoise(sigma float64) Config {
	c.NoiseSigma = sigma
	return c
}

// Topology is a generated access-link bottleneck topology whose link
// capacities can evolve over time while preserving the tree structure —
// the realistic model of changing network conditions (hosts' access
// links speed up or slow down; the paths stay put).
type Topology struct {
	cfg        Config
	coreParent []int
	coreCap    []float64 // capacity of edge to parent
	hostCore   []int     // core vertex each host attaches to
	hostCap    []float64 // access-link capacity
	depth      []int
}

// NewTopology samples a random topology: vertices 0..N-1 are hosts, each
// attached by an access edge to one of N-1 internal core vertices, which
// form a random tree among themselves.
func NewTopology(cfg Config, rng *rand.Rand) (*Topology, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("dataset: nil rng")
	}
	nCore := cfg.N - 1
	if nCore < 1 {
		nCore = 1
	}
	t := &Topology{
		cfg:        cfg,
		coreParent: make([]int, nCore),
		coreCap:    make([]float64, nCore),
		hostCore:   make([]int, cfg.N),
		hostCap:    make([]float64, cfg.N),
		depth:      make([]int, nCore),
	}
	t.coreParent[0] = -1
	for i := 1; i < nCore; i++ {
		t.coreParent[i] = rng.Intn(i)
		t.coreCap[i] = t.clamp(math.Exp(cfg.AccessMu + cfg.CoreBoost + cfg.CoreSigma*rng.NormFloat64()))
		t.depth[i] = t.depth[t.coreParent[i]] + 1
	}
	for h := 0; h < cfg.N; h++ {
		t.hostCore[h] = rng.Intn(nCore)
		t.hostCap[h] = t.clamp(math.Exp(cfg.AccessMu + cfg.AccessSigma*rng.NormFloat64()))
	}
	return t, nil
}

func (t *Topology) clamp(v float64) float64 {
	if v < t.cfg.MinBW {
		return t.cfg.MinBW
	}
	if v > t.cfg.MaxBW {
		return t.cfg.MaxBW
	}
	return v
}

// minOnPath returns the bottleneck capacity between two core vertices.
func (t *Topology) minOnPath(a, b int) float64 {
	minCap := math.Inf(1)
	for t.depth[a] > t.depth[b] {
		if t.coreCap[a] < minCap {
			minCap = t.coreCap[a]
		}
		a = t.coreParent[a]
	}
	for t.depth[b] > t.depth[a] {
		if t.coreCap[b] < minCap {
			minCap = t.coreCap[b]
		}
		b = t.coreParent[b]
	}
	for a != b {
		if t.coreCap[a] < minCap {
			minCap = t.coreCap[a]
		}
		if t.coreCap[b] < minCap {
			minCap = t.coreCap[b]
		}
		a = t.coreParent[a]
		b = t.coreParent[b]
	}
	return minCap
}

// Matrix materializes the current bandwidth matrix, applying the
// configured per-pair measurement noise with rng.
func (t *Topology) Matrix(rng *rand.Rand) (*metric.Matrix, error) {
	if rng == nil {
		return nil, fmt.Errorf("dataset: nil rng")
	}
	n := t.cfg.N
	bw := metric.NewMatrix(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			cap := math.Min(t.hostCap[u], t.hostCap[v])
			if t.hostCore[u] != t.hostCore[v] {
				cap = math.Min(cap, t.minOnPath(t.hostCore[u], t.hostCore[v]))
			}
			// The noise draw is consumed even when NoiseSigma is 0 so
			// that configs differing only in noise amplitude produce
			// paired datasets: identical topology and noise directions.
			// The treeness experiment (Fig. 5) depends on this pairing to
			// isolate the epsilon effect from topology variance.
			cap *= math.Exp(t.cfg.NoiseSigma * rng.NormFloat64())
			bw.Set(u, v, t.clamp(cap))
		}
	}
	return bw, nil
}

// Evolve drifts every link capacity (access and core) by an independent
// lognormal factor exp(sigma * N(0,1)), clamped to the configured range.
// The topology — and therefore the near-tree structure of the induced
// bandwidth — is preserved; only the conditions change.
func (t *Topology) Evolve(sigma float64, rng *rand.Rand) error {
	if sigma < 0 {
		return fmt.Errorf("dataset: evolve sigma must be >= 0, got %v", sigma)
	}
	if rng == nil {
		return fmt.Errorf("dataset: nil rng")
	}
	for h := range t.hostCap {
		t.hostCap[h] = t.clamp(t.hostCap[h] * math.Exp(sigma*rng.NormFloat64()))
	}
	for i := 1; i < len(t.coreCap); i++ {
		t.coreCap[i] = t.clamp(t.coreCap[i] * math.Exp(sigma*0.3*rng.NormFloat64()))
	}
	return nil
}

// Generate builds a symmetric bandwidth matrix (Mbps) from the
// access-link bottleneck model. Deterministic for a given rng.
func Generate(cfg Config, rng *rand.Rand) (*metric.Matrix, error) {
	t, err := NewTopology(cfg, rng)
	if err != nil {
		return nil, err
	}
	return t.Matrix(rng)
}

// RandomSubset returns the restriction of bw to n randomly chosen hosts.
func RandomSubset(bw *metric.Matrix, n int, rng *rand.Rand) (*metric.Matrix, error) {
	if n > bw.N() {
		return nil, fmt.Errorf("dataset: subset of %d from %d hosts", n, bw.N())
	}
	idx := rng.Perm(bw.N())[:n]
	sub, err := bw.Submatrix(idx)
	if err != nil {
		return nil, fmt.Errorf("dataset: subset: %w", err)
	}
	return sub, nil
}
