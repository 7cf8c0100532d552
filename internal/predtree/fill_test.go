package predtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bwcluster/internal/metric"
	"bwcluster/internal/testutil"
)

// bfsDists returns t's predicted distances by definition, host-indexed
// and hostCap wide: the sums distancesFrom's BFS makes from the leaf of
// the pair's earlier joiner.
func bfsDists(t *Tree) [][]float64 {
	ref := make([][]float64, t.hostCap())
	for h := range ref {
		ref[h] = make([]float64, t.hostCap())
	}
	sc := getScratch(len(t.verts))
	defer putScratch(sc)
	hosts := t.Hosts()
	for i, g := range hosts {
		t.distancesFrom(t.leafVert[g], sc)
		for _, h := range hosts[i+1:] {
			ref[g][h] = sc.dist[t.leafVert[h]]
			ref[h][g] = ref[g][h]
		}
	}
	return ref
}

// checkBits fails unless got and want have the same bits.
func checkBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v (%#x), BFS reference %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestForestFillMatchesBFS checks every entry of every tree's and the
// forest's distance matrices, bit for bit, against per-pair BFS sums and
// their median, for forests of one to four trees, before and after churn
// leaves their host ids sparse. A fill into a matrix wider than the
// largest host id, rows being host ids as overlay.NewDist has them, must
// write those same values and leave every other entry alone.
func TestForestFillMatchesBFS(t *testing.T) {
	for trees := 1; trees <= 4; trees++ {
		for _, churn := range []bool{false, true} {
			t.Run(fmt.Sprintf("trees%d/churn%v", trees, churn), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(10*trees) + 3))
				o := testutil.NoisyTreeMetric(40, 0.3, rng)
				f, err := BuildForest(o, 100, SearchAnchor, trees, rng)
				if err != nil {
					t.Fatal(err)
				}
				if churn {
					// Remove the first joiner of the primary tree (its
					// root), then two more, and bring one back.
					for _, h := range []int{f.Hosts()[0], 5, 17} {
						if err := f.Remove(h); err != nil {
							t.Fatal(err)
						}
					}
					if err := f.Add(5, o); err != nil {
						t.Fatal(err)
					}
				}
				refs := make([][][]float64, trees)
				for ti, tr := range f.trees {
					refs[ti] = bfsDists(tr)
					m, hosts := tr.DistMatrix()
					for i := range hosts {
						for j := range hosts {
							want := refs[ti][hosts[i]][hosts[j]]
							checkBits(t, fmt.Sprintf("tree %d DistMatrix(%d, %d)", ti, i, j), m.Dist(i, j), want)
						}
					}
				}
				forestRef := func(g, h int) float64 {
					if g == h {
						return 0
					}
					ds := make([]float64, trees)
					for ti := range refs {
						ds[ti] = refs[ti][g][h]
					}
					return median(ds)
				}
				m, hosts := f.DistMatrix()
				for i := range hosts {
					for j := range hosts {
						checkBits(t, fmt.Sprintf("forest DistMatrix(%d, %d)", i, j), m.Dist(i, j), forestRef(hosts[i], hosts[j]))
					}
				}
				width := f.trees[0].hostCap() + 3
				wide := metric.NewMatrix(width)
				const untouched = -7.0
				for i := range width {
					for j := i + 1; j < width; j++ {
						wide.Set(i, j, untouched)
					}
				}
				rows := make([]int, width)
				for h := range rows {
					rows[h] = h
				}
				f.FillDist(wide, rows)
				for g := range width {
					for h := range width {
						want := untouched
						if f.Contains(g) && f.Contains(h) || g == h {
							want = forestRef(g, h)
						}
						checkBits(t, fmt.Sprintf("host-indexed fill (%d, %d)", g, h), wide.Dist(g, h), want)
					}
				}
			})
		}
	}
}
