package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bwcluster/internal/metric"
	"bwcluster/internal/testutil"
)

// opaqueSpace hides a *metric.Matrix behind the metric.Space interface,
// so every scan over it takes the generic Dist path instead of reading
// matrix rows.
type opaqueSpace struct{ m *metric.Matrix }

func (o opaqueSpace) N() int                { return o.m.N() }
func (o opaqueSpace) Dist(i, j int) float64 { return o.m.Dist(i, j) }

// rowPathSpaces returns the spaces the row path is checked on: random
// clustered spaces, noisy tree metrics, and small-integer distances whose
// many ties sit exactly on the d(x,p) <= d(p,q) boundary.
func rowPathSpaces() map[string]*metric.Matrix {
	spaces := map[string]*metric.Matrix{}
	// n = 17's 136 pairs take the index's comparison sort, the larger
	// spaces its radix sort (radixMin).
	for seed, n := range map[int64]int{1: 17, 2: 33, 3: 50, 4: 64} {
		rng := rand.New(rand.NewSource(seed))
		spaces[fmt.Sprintf("random/seed%d/n%d", seed, n)] = randomSpace(n, seed)
		for _, noise := range []float64{0, 0.2} {
			m := testutil.NoisyTreeMetric(n, noise, rng)
			spaces[fmt.Sprintf("tree/seed%d/n%d/noise%v", seed, n, noise)] = m
		}
		spaces[fmt.Sprintf("ties/seed%d/n%d", seed, n)] = metric.FromFunc(n, func(i, j int) float64 {
			return float64(1 + rng.Intn(4))
		})
	}
	return spaces
}

// TestRowPathCountsMatchDistPath sizes every S*pq of each space through
// the matrix's rows and through the opaque wrapper: the counts and the
// member lists must agree for every ordered pair.
func TestRowPathCountsMatchDistPath(t *testing.T) {
	for name, m := range rowPathSpaces() {
		t.Run(name, func(t *testing.T) {
			o := opaqueSpace{m}
			n := m.N()
			for p := 0; p < n; p++ {
				for q := 0; q < n; q++ {
					got, want := countMembers(m, p, q), countMembers(o, p, q)
					if got != want {
						t.Fatalf("|S*(%d,%d)|: row path %d, Dist path %d", p, q, got, want)
					}
					for _, k := range []int{2, want / 2, n} {
						if got, want := firstMembers(m, p, q, k), firstMembers(o, p, q, k); !slices.Equal(got, want) {
							t.Fatalf("first %d members of S*(%d,%d): row path %v, Dist path %v", k, p, q, got, want)
						}
					}
				}
			}
		})
	}
}

// TestRowPathIndexMatchesDistPath builds the index, through NewIndex and
// NewIndexParallelAt, over each matrix and over its opaque wrapper, and asks all of
// them every k at every pair distance and just below it: Find and
// MaxSize must agree element for element, and so must the direct scans
// FindCluster and MaxClusterSize on a sample of those queries.
func TestRowPathIndexMatchesDistPath(t *testing.T) {
	for name, m := range rowPathSpaces() {
		t.Run(name, func(t *testing.T) {
			o := opaqueSpace{m}
			ixM, err := NewIndex(m)
			if err != nil {
				t.Fatal(err)
			}
			ixO, err := NewIndex(o)
			if err != nil {
				t.Fatal(err)
			}
			ixP, err := NewIndexParallelAt(m, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			ls := slices.Compact(slices.Sorted(slices.Values(m.Values())))
			n := m.N()
			for i, d := range ls {
				for _, l := range []float64{d, math.Nextafter(d, 0)} {
					want := ixO.MaxSize(l)
					if got := ixM.MaxSize(l); got != want {
						t.Fatalf("MaxSize(%v): matrix %d, wrapper %d", l, got, want)
					}
					if got := ixP.MaxSize(l); got != want {
						t.Fatalf("MaxSize(%v): parallel matrix %d, wrapper %d", l, got, want)
					}
					if i%64 == 0 { // an O(n^3) scan each: sample the distances
						size, members := MaxClusterSize(m, l)
						oSize, oMembers := MaxClusterSize(o, l)
						if size != oSize || !slices.Equal(members, oMembers) {
							t.Fatalf("MaxClusterSize(%v): matrix %d %v, wrapper %d %v", l, size, members, oSize, oMembers)
						}
					}
					for k := 2; k <= n; k++ {
						want, err := ixO.Find(k, l)
						if err != nil {
							t.Fatal(err)
						}
						if got, _ := ixM.Find(k, l); !slices.Equal(got, want) {
							t.Fatalf("Find(%d, %v): matrix %v, wrapper %v", k, l, got, want)
						}
						if got, _ := ixP.Find(k, l); !slices.Equal(got, want) {
							t.Fatalf("Find(%d, %v): parallel matrix %v, wrapper %v", k, l, got, want)
						}
						if k <= 3 && i%8 == 0 {
							got, _ := FindCluster(m, k, l)
							if direct, _ := FindCluster(o, k, l); !slices.Equal(got, direct) || !slices.Equal(direct, want) {
								t.Fatalf("FindCluster(%d, %v): matrix %v, wrapper %v, index %v", k, l, got, direct, want)
							}
						}
					}
				}
			}
		})
	}
}

// diagSpace gives a matrix's nodes their own distances d(x,x), which a
// *metric.Matrix pins to zero: node x belongs to its own S*xq only once
// d(x,q) reaches diag[x], and never when diag[x] is NaN.
type diagSpace struct {
	m    *metric.Matrix
	diag []float64
}

func (s diagSpace) N() int { return s.m.N() }
func (s diagSpace) Dist(i, j int) float64 {
	if i == j {
		return s.diag[i]
	}
	return s.m.Dist(i, j)
}

// rowScanSizes sizes every S*pq (p < q) the way the index did before
// its sweep: one countMembers row scan per pair, O(n^3) comparisons.
func rowScanSizes(s metric.Space) []int32 {
	n := s.N()
	sizes := make([]int32, n*n)
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			sizes[p*n+q] = int32(countMembers(s, p, q))
		}
	}
	return sizes
}

// sweepSpaces returns the spaces the index sweep is checked on beyond
// rowPathSpaces: zero distances of both signs, the +Inf rows of departed
// hosts (overlay.NewDist's churn rule), a negative distance, NaN entries,
// own distances other than zero, and the sizes around one bitset word.
func sweepSpaces() map[string]metric.Space {
	spaces := map[string]metric.Space{}
	for name, m := range rowPathSpaces() {
		spaces[name] = m
		spaces[name+"/opaque"] = opaqueSpace{m}
	}
	for _, n := range []int{0, 1, 2, 63, 64, 65} {
		spaces[fmt.Sprintf("random/n%d", n)] = randomSpace(n, int64(n)+100)
	}
	rng := rand.New(rand.NewSource(5))
	negZero := math.Copysign(0, -1)
	spaces["zeros"] = metric.FromFunc(40, func(i, j int) float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return negZero
		default:
			return float64(rng.Intn(3))
		}
	})
	departed := randomSpace(50, 6)
	for _, h := range []int{0, 7, 31, 49} {
		for j := range departed.N() {
			departed.Set(h, j, math.Inf(1))
		}
	}
	spaces["departed"] = departed
	negative := randomSpace(30, 7)
	negative.Set(3, 11, -2)
	negative.Set(4, 11, math.Inf(-1))
	spaces["negative"] = negative
	nan := randomSpace(30, 8)
	nan.Set(2, 9, math.NaN())
	for j := range nan.N() {
		nan.Set(17, j, math.NaN())
	}
	spaces["nan"] = nan
	own := randomSpace(40, 9)
	diag := make([]float64, own.N())
	for x := range diag {
		diag[x] = []float64{0, 1.5, 10.5, 20, math.NaN(), math.Inf(1), -1}[x%7]
	}
	spaces["own-distances"] = diagSpace{own, diag}
	return spaces
}

// TestIndexSizesMatchRowScan checks the index's one-sweep sizes against
// a countMembers row scan on every pair p < q, and that its pairs come
// in (distance, p, q) order, the order of a comparison sort on that key.
func TestIndexSizesMatchRowScan(t *testing.T) {
	for name, s := range sweepSpaces() {
		t.Run(name, func(t *testing.T) {
			ix, err := NewIndex(s)
			if err != nil {
				t.Fatal(err)
			}
			n := s.N()
			want := rowScanSizes(s)
			for p := 0; p < n; p++ {
				for q := p + 1; q < n; q++ {
					if got := ix.lexSizes[lexAt(n, p, q)]; got != want[p*n+q] {
						t.Fatalf("|S*(%d,%d)| = %d, row scan counts %d (d = %v)", p, q, got, want[p*n+q], s.Dist(p, q))
					}
				}
			}
			byCompare := slices.Clone(ix.pairs)
			slices.SortFunc(byCompare, func(a, b pair) int {
				switch {
				case math.IsNaN(a.d) || math.IsNaN(b.d):
					if c := cmpBool(math.IsNaN(a.d), math.IsNaN(b.d)); c != 0 {
						return c
					}
				case a.d < b.d:
					return -1
				case a.d > b.d:
					return 1
				}
				if a.p != b.p {
					return int(a.p - b.p)
				}
				return int(a.q - b.q)
			})
			for i := range byCompare {
				if a, b := ix.pairs[i], byCompare[i]; a.p != b.p || a.q != b.q {
					t.Fatalf("pair %d is (%d,%d) d=%v, a comparison sort puts (%d,%d) d=%v there", i, a.p, a.q, a.d, b.p, b.q, b.d)
				}
			}
		})
	}
}

// cmpBool orders false before true.
func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	default:
		return -1
	}
}
