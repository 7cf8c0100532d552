// Package metric implements the metric-space machinery underlying
// bandwidth-constrained clustering: symmetric distance/bandwidth matrices,
// the rational transform d(u,v) = C/BW(u,v) that turns bandwidth into a
// metric, and the four-point-condition (4PC) treeness statistics used in
// the paper's Section IV-C.
package metric

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// DefaultC is the positive constant of the rational transform. The paper
// uses C = 100 in its running example (Fig. 1); any positive constant
// yields the same cluster answers because it rescales all distances
// uniformly.
const DefaultC = 100.0

// Space is a finite metric space over nodes 0..N()-1.
type Space interface {
	// N reports the number of nodes.
	N() int
	// Dist reports the distance between nodes i and j.
	Dist(i, j int) float64
}

// Matrix is a dense symmetric matrix over n nodes with zero diagonal,
// usable both as a distance matrix and as a bandwidth matrix (where the
// "diagonal" is conceptually infinite but stored as zero and never read).
type Matrix struct {
	n    int
	data []float64 // row-major n*n, kept symmetric by Set
}

var _ Space = (*Matrix)(nil)

// NewMatrix returns an n-by-n zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{n: n, data: make([]float64, n*n)}
}

// FromFunc builds a symmetric matrix by evaluating f on every unordered
// pair i < j.
func FromFunc(n int, f func(i, j int) float64) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, f(i, j))
		}
	}
	return m
}

// N reports the number of nodes.
func (m *Matrix) N() int { return m.n }

// Dist returns the entry (i, j). It implements Space.
func (m *Matrix) Dist(i, j int) float64 { return m.data[i*m.n+j] }

// Row returns row i as a read-only slice aliasing the matrix: Row(i)[j]
// is Dist(i, j), and since the matrix is symmetric it is also column i.
// Callers must not write to it.
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.n : (i+1)*m.n : (i+1)*m.n] }

// Data returns the n*n entries in row-major order, aliasing the matrix:
// entry (i, j) is Data()[i*N()+j]. It lets a fill write a fresh matrix in
// place; the writer must leave it symmetric, with a zero diagonal, before
// anyone else reads it.
func (m *Matrix) Data() []float64 { return m.data }

// At is an alias for Dist, reading better when the matrix holds bandwidth.
func (m *Matrix) At(i, j int) float64 { return m.Dist(i, j) }

// Set writes value v at (i, j) and (j, i). Setting a diagonal entry is a
// no-op: the diagonal is identically zero.
func (m *Matrix) Set(i, j int, v float64) {
	if i == j {
		return
	}
	m.data[i*m.n+j] = v
	m.data[j*m.n+i] = v
}

// Clone returns a deep copy of m.
// Kept: perfbench calls it (ROADMAP 1(c)).
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.n)
	copy(c.data, m.data)
	return c
}

// Submatrix returns the restriction of m to the given node indices, in
// order. Duplicate or out-of-range indices are an error.
func (m *Matrix) Submatrix(idx []int) (*Matrix, error) {
	seen := make(map[int]bool, len(idx))
	for _, v := range idx {
		if v < 0 || v >= m.n {
			return nil, fmt.Errorf("metric: submatrix index %d out of range [0,%d)", v, m.n)
		}
		if seen[v] {
			return nil, fmt.Errorf("metric: duplicate submatrix index %d", v)
		}
		seen[v] = true
	}
	sub := NewMatrix(len(idx))
	for a, i := range idx {
		for b, j := range idx {
			if a < b {
				sub.Set(a, b, m.Dist(i, j))
			}
		}
	}
	return sub, nil
}

// Values returns all off-diagonal upper-triangle entries (one per pair).
func (m *Matrix) Values() []float64 {
	out := make([]float64, 0, m.n*(m.n-1)/2)
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			out = append(out, m.Dist(i, j))
		}
	}
	return out
}

// Symmetrize builds a symmetric matrix from a possibly asymmetric square
// slice-of-slices by averaging forward and reverse entries, the same
// preprocessing the paper applies to the PlanetLab matrices.
func Symmetrize(asym [][]float64) (*Matrix, error) {
	n := len(asym)
	for i, row := range asym {
		if len(row) != n {
			return nil, fmt.Errorf("metric: row %d has %d entries, want %d", i, len(row), n)
		}
	}
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, (asym[i][j]+asym[j][i])/2)
		}
	}
	return m, nil
}

// DistanceFromBandwidth applies the rational transform d = C/BW entrywise.
// C, every bandwidth entry and every resulting distance must be positive
// and finite: a NaN entry would fail every comparison downstream, and
// +Inf would become distance 0.
func DistanceFromBandwidth(bw *Matrix, c float64) (*Matrix, error) {
	if !positiveFinite(c) {
		return nil, fmt.Errorf("metric: rational-transform constant must be positive and finite, got %v", c)
	}
	d := NewMatrix(bw.n)
	for i := 0; i < bw.n; i++ {
		row := bw.Row(i)
		for j := i + 1; j < bw.n; j++ {
			b := row[j]
			if !positiveFinite(b) || !positiveFinite(c/b) {
				return nil, fmt.Errorf("metric: bandwidth(%d,%d)=%v does not give a positive finite distance C/BW (C=%v)", i, j, b, c)
			}
			d.Set(i, j, c/b)
		}
	}
	return d, nil
}

// positiveFinite reports whether v is in (0, +Inf); NaN is not.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// DistanceForBandwidthConstraint converts a minimum-bandwidth query
// constraint b into the equivalent maximum-diameter constraint l = C/b.
func DistanceForBandwidthConstraint(b, c float64) (float64, error) {
	if !(b > 0) || !(c > 0) { // negated so NaN fails too
		return 0, fmt.Errorf("metric: constraint transform needs b>0, c>0 (b=%v c=%v)", b, c)
	}
	return c / b, nil
}

// Diameter returns max d(u,v) over the given nodes in the space, 0 for
// fewer than two nodes.
func Diameter(s Space, nodes []int) float64 {
	maxD := 0.0
	for a := 0; a < len(nodes); a++ {
		for b := a + 1; b < len(nodes); b++ {
			if d := s.Dist(nodes[a], nodes[b]); d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}

// matrixWire is Matrix's serialized form.
type matrixWire struct {
	N    int
	Data []float64
}

// GobEncode implements gob.GobEncoder, making matrices persistable.
func (m *Matrix) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(matrixWire{N: m.n, Data: m.data}); err != nil {
		return nil, fmt.Errorf("metric: encode matrix: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (m *Matrix) GobDecode(b []byte) error {
	var w matrixWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return fmt.Errorf("metric: decode matrix: %w", err)
	}
	if w.N < 0 || len(w.Data) != w.N*w.N {
		return fmt.Errorf("metric: decode matrix: %d values for n=%d", len(w.Data), w.N)
	}
	m.n = w.N
	m.data = w.Data
	return nil
}
