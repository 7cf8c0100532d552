package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bwcluster/internal/testutil"
)

// Property (testing/quick over random seeds): for any noisy metric space
// and any (k, l) drawn from it, FindCluster either returns exactly k
// in-range, duplicate-free nodes or nil; and whenever it returns nil on
// an exact tree metric, brute force also finds nothing.
func TestFindClusterInvariantsQuick(t *testing.T) {
	invariant := func(seed int64, kRaw uint8, lPick uint8, noisy bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		noise := 0.0
		if noisy {
			noise = 0.4
		}
		m := testutil.NoisyTreeMetric(n, noise, rng)
		k := 2 + int(kRaw)%(n-1)
		vals := m.Values()
		l := vals[int(lPick)%len(vals)]
		got, err := FindCluster(m, k, l)
		if err != nil {
			return false
		}
		if got == nil {
			if noise == 0 {
				slow, err := bruteForce(m, k, l)
				if err != nil || slow != nil {
					return false
				}
			}
			return true
		}
		if len(got) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, x := range got {
			if x < 0 || x >= n || seen[x] {
				return false
			}
			seen[x] = true
		}
		// On exact tree metrics the answer really has diameter <= l.
		if noise == 0 && !valid(m, got, l*(1+1e-9)) {
			return false
		}
		return true
	}
	if err := quick.Check(invariant, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: MaxClusterSize is monotone non-decreasing in l on any metric
// (S*pq membership does not depend on l), and on exact tree metrics its
// witness really satisfies the diameter bound (Theorem 3.1; on noisy
// metrics the witness may violate it — that is exactly the WPR error
// source the paper measures).
func TestMaxClusterSizeMonotoneQuick(t *testing.T) {
	monotone := func(seed int64, noisy bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		noise := 0.0
		if noisy {
			noise = 0.3
		}
		m := testutil.NoisyTreeMetric(n, noise, rng)
		maxDist := 0.0
		for _, v := range m.Values() {
			if v > maxDist {
				maxDist = v
			}
		}
		prev := 0
		for _, frac := range []float64{0, 0.25, 0.5, 1, 2} {
			l := maxDist * frac
			size, witness := MaxClusterSize(m, l)
			if size < prev {
				return false
			}
			if !noisy && size >= 2 && !valid(m, witness, l*(1+1e-9)) {
				return false
			}
			prev = size
		}
		return prev == n // l = 2*max covers everything
	}
	if err := quick.Check(monotone, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: the Index agrees with the direct algorithm for arbitrary
// (seed, k, l) combinations.
func TestIndexEquivalenceQuick(t *testing.T) {
	equiv := func(seed int64, kRaw, lPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		m := testutil.NoisyTreeMetric(n, 0.3, rng)
		ix, err := NewIndex(m)
		if err != nil {
			return false
		}
		k := 2 + int(kRaw)%(n-1)
		vals := m.Values()
		l := vals[int(lPick)%len(vals)]
		direct, err1 := FindCluster(m, k, l)
		indexed, err2 := ix.Find(k, l)
		if err1 != nil || err2 != nil {
			return false
		}
		if (direct == nil) != (indexed == nil) || len(direct) != len(indexed) {
			return false
		}
		for i := range direct {
			if direct[i] != indexed[i] {
				return false
			}
		}
		dm, _ := MaxClusterSize(m, l)
		return ix.MaxSize(l) == dm
	}
	if err := quick.Check(equiv, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
