// Package vivaldi implements the Vivaldi decentralized network-coordinate
// algorithm (Dabek, Cox, Kaashoek, Morris — SIGCOMM 2004) in a 2-d
// Euclidean space. The clustering paper uses it, combined with the
// rational transform, as the comparison bandwidth-prediction model
// (HP/UMD-EUCL-CENTRAL): each host gets 2-d coordinates whose Euclidean
// distances approximate the transformed bandwidth measurements.
package vivaldi

import (
	"fmt"
	"math"
	"math/rand"

	"bwcluster/internal/metric"
)

// Config controls the embedding simulation.
type Config struct {
	// Rounds is how many update rounds every node performs.
	Rounds int
	// Samples is how many random peers each node measures per round.
	Samples int
	// CC is the coordinate adaptation gain (delta = CC * w).
	CC float64
	// CE is the error-estimate adaptation gain.
	CE float64
	// Height enables Vivaldi's height-vector model: each node carries a
	// non-negative height added to every distance, capturing the
	// access-link component that Euclidean coordinates cannot (Dabek et
	// al., Sec. 5.4). Off by default to match the paper's plain 2-d
	// comparison model.
	Height bool
}

// DefaultConfig returns the standard Vivaldi parameters (cc = ce = 0.25)
// with enough rounds to converge on a few hundred nodes.
func DefaultConfig() Config {
	return Config{Rounds: 60, Samples: 16, CC: 0.25, CE: 0.25}
}

func (c Config) validate() error {
	if c.Rounds <= 0 {
		return fmt.Errorf("vivaldi: rounds must be positive, got %d", c.Rounds)
	}
	if c.Samples <= 0 {
		return fmt.Errorf("vivaldi: samples must be positive, got %d", c.Samples)
	}
	if c.CC <= 0 || c.CC > 1 {
		return fmt.Errorf("vivaldi: cc must be in (0,1], got %v", c.CC)
	}
	if c.CE <= 0 || c.CE > 1 {
		return fmt.Errorf("vivaldi: ce must be in (0,1], got %v", c.CE)
	}
	return nil
}

// Point is a 2-d coordinate with an optional height component.
type Point struct {
	X, Y float64
	// H is the height-vector component; 0 in the plain 2-d model.
	H float64
}

// Dist returns the distance between two points: the Euclidean part plus
// both heights (heights model the trip down and up access links, so they
// always add).
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y) + p.H + q.H
}

// Embedding holds converged coordinates for n hosts.
type Embedding struct {
	coords []Point
}

var _ metric.Space = (*Embedding)(nil)

// N reports the number of embedded hosts.
func (e *Embedding) N() int { return len(e.coords) }

// Dist returns the embedded (predicted) distance between hosts i and j.
func (e *Embedding) Dist(i, j int) float64 { return e.coords[i].Dist(e.coords[j]) }

// Coord returns host i's coordinate.
func (e *Embedding) Coord(i int) Point { return e.coords[i] }

// Points returns a copy of all coordinates.
// Kept: pending: only its own copy test calls it.
func (e *Embedding) Points() []Point {
	out := make([]Point, len(e.coords))
	copy(out, e.coords)
	return out
}

// Matrix materializes the pairwise embedded distances.
func (e *Embedding) Matrix() *metric.Matrix {
	return metric.FromFunc(len(e.coords), func(i, j int) float64 { return e.Dist(i, j) })
}

// Embed runs the Vivaldi simulation against the measured distances in o
// (typically a rational-transformed bandwidth matrix) and returns the
// converged coordinates. The simulation is deterministic for a given rng.
func Embed(o metric.Space, cfg Config, rng *rand.Rand) (*Embedding, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if o == nil {
		return nil, fmt.Errorf("vivaldi: nil oracle")
	}
	if rng == nil {
		return nil, fmt.Errorf("vivaldi: nil rng")
	}
	n := o.N()
	coords := make([]Point, n)
	errEst := make([]float64, n)
	for i := range coords {
		// Small random start breaks symmetry deterministically.
		coords[i] = Point{X: rng.Float64()*1e-3 - 5e-4, Y: rng.Float64()*1e-3 - 5e-4}
		if cfg.Height {
			coords[i].H = rng.Float64() * 1e-3
		}
		errEst[i] = 1
	}
	if n < 2 {
		return &Embedding{coords: coords}, nil
	}
	for round := 0; round < cfg.Rounds; round++ {
		for i := 0; i < n; i++ {
			for s := 0; s < cfg.Samples; s++ {
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				update(coords, errEst, i, j, o.Dist(i, j), cfg, rng)
			}
		}
	}
	return &Embedding{coords: coords}, nil
}

// update applies one Vivaldi sample at node i against remote node j whose
// measured distance is rtt.
func update(coords []Point, errEst []float64, i, j int, rtt float64, cfg Config, rng *rand.Rand) {
	if rtt <= 0 {
		return
	}
	cur := coords[i].Dist(coords[j])
	// Sample weight balances local vs remote confidence.
	w := errEst[i] / (errEst[i] + errEst[j])
	relErr := math.Abs(cur-rtt) / rtt
	errEst[i] = relErr*cfg.CE*w + errEst[i]*(1-cfg.CE*w)
	if errEst[i] > 1 {
		errEst[i] = 1
	}
	// Unit vector from j to i; random planar direction when coincident.
	// With heights, vector subtraction ADDS the heights (the packet goes
	// up one access link and down the other), so the height component of
	// the direction is (h_i + h_j) / norm.
	dx, dy := coords[i].X-coords[j].X, coords[i].Y-coords[j].Y
	planar := math.Hypot(dx, dy)
	hSum := coords[i].H + coords[j].H
	norm := planar + hSum
	if planar < 1e-12 {
		angle := rng.Float64() * 2 * math.Pi
		dx, dy = math.Cos(angle), math.Sin(angle)
		planar = 1
		if norm < 1e-12 {
			norm = 1
		}
	}
	force := cfg.CC * w * (rtt - cur)
	coords[i].X += force * dx / planar * (planar / norm)
	coords[i].Y += force * dy / planar * (planar / norm)
	if cfg.Height {
		coords[i].H += force * hSum / norm
		if coords[i].H < 0 {
			coords[i].H = 0
		}
	}
}
