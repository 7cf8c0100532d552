package main

import (
	"slices"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		wantBP int
		wantOK bool
	}{
		{19, 0, false},
		{20, p50, true},
		{39, p50, true},
		{40, 7500, true},
		{999, 9500, true}, // p99 needs 1000 samples
		{1000, p99, true},
		{9999, p99, true},
		{10000, 9990, true},
		{100000, 9999, true},
	} {
		bp, ok := highestPercentile(c.n)
		if bp != c.wantBP || ok != c.wantOK {
			t.Errorf("highestPercentile(%d) = %d, %v; want %d, %v", c.n, bp, ok, c.wantBP, c.wantOK)
		}
	}
}

func sequence(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestPercentileRefusesThinTail(t *testing.T) {
	if _, err := percentile(sequence(999), p99); err == nil {
		t.Fatal("p99 of 999 samples was not refused")
	}
	if _, err := percentile(sequence(19), p50); err == nil {
		t.Fatal("p50 of 19 samples was not refused")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := sequence(1000)
	got, err := percentile(s, p99)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest rank: the 990th smallest value, with exactly ten beyond it.
	if got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
	if got, _ := percentile(s, p50); got != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", got)
	}
}

func TestSummarize(t *testing.T) {
	lat := make([]int64, 2000)
	for i := range lat {
		lat[i] = 1000 // 1 µs
	}
	for i := 0; i < 100; i++ {
		lat[i*20] = 50_000 // 5 % of ops at 50 µs, past 10x the median
	}
	s, err := summarize(lat)
	if err != nil {
		t.Fatal(err)
	}
	if s.n != 2000 || s.p50 != 1 || s.p99 != 50 || s.tail != p99 {
		t.Errorf("summary = %+v, want n 2000, p50 1, p99 50, tail p99", s)
	}
	if s.slow != 0.05 {
		t.Errorf("slow share = %v, want 0.05", s.slow)
	}
	if _, err := summarize(lat[:999]); err == nil {
		t.Error("summarize accepted 999 samples for p99")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
}

func TestCycleEndsWhenInputsRunOut(t *testing.T) {
	rep := newReport()
	var ops [2]int
	ph := cycle(rep, 2, 3*blockOps, time.Hour, nil, layerCall, false, func(m, i int, _ bool) {
		if i != ops[m] {
			t.Fatalf("system %d: op %d issued after %d ops", m, i, ops[m])
		}
		ops[m]++
	})
	if !ph.exhausted || ops != [2]int{3 * blockOps, 3 * blockOps} || rep.attempted != 6*blockOps || len(ph.probes) != 6 {
		t.Errorf("exhausted %v, ops %v, attempted %d, blocks %d; want true, 3 blocks each, %d, 6",
			ph.exhausted, ops, rep.attempted, len(ph.probes), 6*blockOps)
	}
	if len(rep.problems) != 0 || rep.failed != 0 {
		t.Errorf("running out of inputs failed the run: %v", rep.problems)
	}
}

func TestCycleRecordsProcessCPU(t *testing.T) {
	ph := cycle(newReport(), 1, blockOps, time.Hour, nil, layerCall, true, func(_, _ int, _ bool) {
		time.Sleep(100 * time.Microsecond)
	})
	if len(ph.cpu) != blockOps || len(ph.slot) != blockOps {
		t.Fatalf("%d CPU times and %d slots for %d ops", len(ph.cpu), len(ph.slot), blockOps)
	}
	var wall, cpu int64
	for i := range ph.lat {
		if ph.slot[i] < ph.lat[i] {
			t.Fatalf("op %d: slot %d ns shorter than its latency %d ns", i, ph.slot[i], ph.lat[i])
		}
		wall += ph.lat[i]
		cpu += ph.cpu[i]
	}
	// Every op sleeps, with no thread of the process on a CPU, for at
	// least 100 µs.
	if wall < blockOps*100_000 || cpu > wall/2 {
		t.Errorf("sleeping ops: wall %v, process CPU %v; want wall >= %v and CPU under half of it",
			time.Duration(wall), time.Duration(cpu), time.Duration(blockOps*100_000))
	}
}

func TestOnCPUCapsAtProcessCPU(t *testing.T) {
	ph := &phase{
		lat:  []int64{100, 100, 100},
		slot: []int64{110, 110, 110},
		cpu:  []int64{40, 105, 250},
	}
	capped, wall, busy := onCPU(ph)
	// The first op's slot ran 40 of its 110 ns; the third ran two threads.
	if want := []int64{40, 100, 100}; !slices.Equal(capped, want) || wall != 330 || busy != 255 {
		t.Errorf("onCPU = %v, %v, %v; want %v, 330ns, 255ns", capped, wall, busy, want)
	}
	ph.cpu = nil
	if capped, wall, busy := onCPU(ph); !slices.Equal(capped, ph.lat) || wall != 330 || busy != 330 {
		t.Errorf("uncapped onCPU = %v, %v, %v; want the latencies, 330ns, 330ns", capped, wall, busy)
	}
}

func TestPerSystemInputs(t *testing.T) {
	if got := perSystemInputs(10*time.Second, 80000, 4); got != 200*blockOps {
		t.Errorf("perSystemInputs(10s, 80000, 4) = %d, want %d", got, 200*blockOps)
	}
	if got := perSystemInputs(time.Second, 10, 4); got != blockOps {
		t.Errorf("perSystemInputs(1s, 10, 4) = %d, want one block", got)
	}
}
