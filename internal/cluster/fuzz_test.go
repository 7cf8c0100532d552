package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"bwcluster/internal/metric"
	"bwcluster/internal/testutil"
)

// FuzzFindClusterRepresentations builds every representation of the
// Algorithm 1 scan from the same fuzzed metric space — the direct
// sequential scan, the precomputed Index (through NewIndex and through
// NewIndexParallelAt), its per-k staircase and its per-l ladder — and
// asserts they give identical answers. Each case queries one index at a
// pair distance and just below it, so the second query reuses the table
// the first built.
// The determinism contract says the FIRST qualifying pair in
// lexicographic order answers, so the answers must match element for
// element, not just set-wise.
func FuzzFindClusterRepresentations(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(64), uint8(0))
	f.Add(int64(42), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(-7), uint8(255), uint8(128), uint8(200), uint8(0))
	// Seed 15 draws n = 69: its 2,346 pairs take the radix sort, the
	// smaller spaces the comparison sort (radixMin).
	f.Add(int64(15), uint8(7), uint8(50), uint8(100), uint8(0))
	// A grid of 2 rounds every distance up to a multiple of 2: wide tie
	// groups for the index sweep, and ties on the d(x,p) <= d(p,q)
	// boundary for every scan.
	f.Add(int64(15), uint8(7), uint8(50), uint8(100), uint8(32))
	f.Fuzz(func(t *testing.T, seed int64, kRaw, lPick, noiseRaw, gridRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(70)
		noise := float64(noiseRaw) / 255 * 0.5
		m := testutil.NoisyTreeMetric(n, noise, rng)
		if gridRaw > 0 {
			// Round up to a multiple of grid, so ties abound and no
			// distance becomes zero.
			grid := float64(gridRaw) / 16
			m = metric.FromFunc(n, func(i, j int) float64 { return math.Ceil(m.Dist(i, j)/grid) * grid })
		}
		k := 2 + int(kRaw)%(n-1)
		vals := m.Values()
		l := vals[int(lPick)%len(vals)]

		ix, err := NewIndex(m)
		if err != nil {
			t.Fatalf("NewIndex: %v", err)
		}
		ixPar, err := NewIndexParallelAt(m, 3, 0)
		if err != nil {
			t.Fatalf("NewIndexParallelAt: %v", err)
		}
		// At a pair distance and just below it, where the answer may move
		// to a later pair; the second query reuses the first one's table.
		for _, lq := range []float64{l, math.Nextafter(l, math.Inf(-1))} {
			direct, err := FindCluster(m, k, lq)
			if err != nil {
				t.Fatalf("FindCluster: %v", err)
			}
			check := func(name string, got []int, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if (direct == nil) != (got == nil) || len(direct) != len(got) {
					t.Fatalf("%s answer %v at l=%v, direct scan answered %v", name, got, lq, direct)
				}
				for i := range direct {
					if direct[i] != got[i] {
						t.Fatalf("%s answer %v at l=%v, direct scan answered %v", name, got, lq, direct)
					}
				}
			}
			indexed, err := ix.Find(k, lq)
			check("Index.Find", indexed, err)
			ixp, err := ixPar.Find(k, lq)
			check("Index.Find (parallel-built index)", ixp, err)
			check("Index.Ladder", ladderAnswer(m, ix.Ladder(lq), k), nil)
		}
		// Both classes' ladders in one allocation equal each on its own.
		below := math.Nextafter(l, math.Inf(-1))
		rungs, ends := ix.Ladders([]float64{l, below})
		if !slices.Equal(rungs[:ends[0]], ix.Ladder(l)) || !slices.Equal(rungs[ends[0]:ends[1]], ix.Ladder(below)) {
			t.Fatalf("Ladders(%v, %v) = %v split at %v, want Ladder of each", l, below, rungs, ends)
		}

		// The sized-pair tables of both index builds must agree too.
		if ix.MaxSize(l) != ixPar.MaxSize(l) {
			t.Fatalf("MaxSize mismatch: sequential index %d, parallel index %d",
				ix.MaxSize(l), ixPar.MaxSize(l))
		}
		if sz, _ := MaxClusterSize(m, l); sz != ix.MaxSize(l) {
			t.Fatalf("MaxClusterSize mismatch: direct %d, index %d", sz, ix.MaxSize(l))
		}
	})
}

// ladderAnswer is Algorithm 1's answer read off l's ladder: the first
// k members of the first rung that admits k, nil when none does.
func ladderAnswer(m *metric.Matrix, ladder []Rung, k int) []int {
	r, ok := Climb(ladder, k)
	if !ok {
		return nil
	}
	return firstMembers(m, int(r.P), int(r.Q), k)
}
