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
	// n = 64 reaches minParallelN, so the parallel build really shards.
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

// TestRowPathIndexMatchesDistPath builds the index, sequentially and in
// parallel, over each matrix and over its opaque wrapper, and asks all of
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
