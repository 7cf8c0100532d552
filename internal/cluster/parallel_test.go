package cluster

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"bwcluster/internal/metric"
)

// randomSpace builds an n-node metric space with clustered structure:
// nodes fall into groups with small intra-group and large inter-group
// distances, plus jitter, so (k, l) queries have non-trivial answers.
func randomSpace(n int, seed int64) *metric.Matrix {
	rng := rand.New(rand.NewSource(seed))
	groups := 4
	m := metric.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			base := 10.0
			if i%groups == j%groups {
				base = 1.0
			}
			m.Set(i, j, base+rng.Float64())
		}
	}
	return m
}

// TestNewIndexParallelMatchesSequential checks the parallel index build
// produces identical query behavior.
func TestNewIndexParallelMatchesSequential(t *testing.T) {
	for _, n := range []int{20, 70, 110} {
		s := randomSpace(n, int64(n)*13)
		seq, err := NewIndex(s)
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewIndexParallelAt(s, 6, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.lexSizes, par.lexSizes) {
			t.Fatalf("n=%d: lexSizes differ", n)
		}
		if !reflect.DeepEqual(seq.prefixMax, par.prefixMax) {
			t.Fatalf("n=%d: prefixMax differ", n)
		}
		for _, k := range []int{2, n / 3, n / 2} {
			if k < 2 {
				continue
			}
			for _, l := range []float64{0.7, 2.2, 12} {
				a, err := seq.Find(k, l)
				if err != nil {
					t.Fatal(err)
				}
				b, err := par.Find(k, l)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("n=%d k=%d l=%v: sequential-built %v, parallel-built %v", n, k, l, a, b)
				}
			}
		}
	}
}

// TestIndexCache checks that answers from a built table equal the first
// answer, and that mutating a returned slice does not poison later
// answers.
func TestIndexCache(t *testing.T) {
	s := randomSpace(60, 5)
	ix, err := NewIndex(s)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ix.Find(4, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("expected a cluster at (4, 2.5) in the grouped space")
	}
	// Corrupt the caller's copy; later answers must be unaffected.
	first[0] = -99
	second, err := ix.Find(4, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if second[0] == -99 {
		t.Fatal("index aliased a caller's slice")
	}
	direct, err := FindCluster(s, 4, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, direct) {
		t.Fatalf("repeated answer %v, direct %v", second, direct)
	}
	// Impossible queries stay nil.
	miss, err := ix.Find(s.N()+1, 0.1)
	if err == nil && miss != nil {
		t.Fatalf("impossible query returned %v", miss)
	}
}

// builtTables counts the per-k staircases ix has built so far.
func builtTables(ix *Index) int {
	built := 0
	for k := range ix.stairs {
		if ix.stairs[k].Load() != nil {
			built++
		}
	}
	return built
}

// TestIndexConcurrentQueries hammers one index from many goroutines.
// All of them first race on a k whose table is not yet built, at
// different l, then on overlapping (k, l) queries; run under -race this
// exercises the build mutex and the lock-free table reads, and every
// answer must match the sequential reference.
func TestIndexConcurrentQueries(t *testing.T) {
	s := randomSpace(90, 11)
	ix, err := NewIndexParallelAt(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	type query struct {
		k int
		l float64
	}
	const coldK = 7
	var cold []query
	for _, l := range []float64{1.1, 1.5, 2.0, 2.6, 11, 12.5} {
		cold = append(cold, query{coldK, l})
	}
	queries := []query{{2, 1.4}, {5, 2.2}, {9, 2.8}, {20, 11}, {45, 12}, {3, 0.9}}
	want := make(map[query][]int)
	for _, qu := range append(cold, queries...) {
		w, err := FindCluster(s, qu.k, qu.l)
		if err != nil {
			t.Fatal(err)
		}
		want[qu] = w
	}
	if builtTables(ix) != 0 {
		t.Fatal("a fresh index must not have built any table")
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 1)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 30; i++ {
				qu := queries[(g+i)%len(queries)]
				if i == 0 {
					qu = cold[g%len(cold)]
				}
				got, err := ix.Find(qu.k, qu.l)
				if err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
				if !reflect.DeepEqual(got, want[qu]) {
					select {
					case errCh <- errMismatch(qu.k, qu.l, got, want[qu]):
					default:
					}
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// One table per k with an answer: infeasible queries build none.
	ks := map[int]bool{}
	for qu, w := range want {
		if w != nil {
			ks[qu.k] = true
		}
	}
	if got := builtTables(ix); got != len(ks) || !ks[coldK] {
		t.Fatalf("%d tables built, want one per answered k (%d, including k = %d)", got, len(ks), coldK)
	}
}

// TestIndexFindBounded checks the cost of an answer: a repeated Find
// allocates only the returned slice, and 100k distinct l values leave at
// most n-1 tables behind, whatever the query mix.
func TestIndexFindBounded(t *testing.T) {
	s := randomSpace(50, 3)
	ix, err := NewIndex(s)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := ix.Find(6, 2.5); err != nil || c == nil {
		t.Fatalf("warm-up query: cluster %v, err %v", c, err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := ix.Find(6, 2.5); err != nil {
			t.Fatal(err)
		}
	}); a != 1 {
		t.Fatalf("repeated Find allocates %v times, want 1", a)
	}
	rng := rand.New(rand.NewSource(9))
	n := s.N()
	for i := 0; i < 100_000; i++ {
		k := 2 + rng.Intn(n+2) // includes k > n, which never builds
		if _, err := ix.Find(k, rng.Float64()*12); err != nil {
			t.Fatal(err)
		}
	}
	if got := builtTables(ix); got > n-1 {
		t.Fatalf("%d tables built for n = %d, bound is n-1", got, n)
	}
}

func errMismatch(k int, l float64, got, want []int) error {
	return &mismatchError{k: k, l: l, got: got, want: want}
}

type mismatchError struct {
	k    int
	l    float64
	got  []int
	want []int
}

func (e *mismatchError) Error() string {
	return "concurrent query mismatch"
}

// BenchmarkIndexBuild compares the index's one-sweep sizing of every
// S*pq with the all-pairs countMembers row scan it replaced, at n = 256.
// The bench gate holds sweep at least 2x cheaper than rowscan.
func BenchmarkIndexBuild(b *testing.B) {
	const n = 256
	s := randomSpace(n, 43)
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NewIndex(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rowscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rowScanSizes(s)
		}
	})
}
