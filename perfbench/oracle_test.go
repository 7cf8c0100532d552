package main

import (
	"slices"
	"testing"

	"bwcluster"
	"bwcluster/internal/cluster"
	"bwcluster/internal/metric"
)

// smallOracle builds a 64-host system and its oracle.
func smallOracle(t *testing.T) (*inputs, *oracle) {
	t.Helper()
	in, err := newInputs(7, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := bwcluster.New(in.raw, bwcluster.WithSeed(in.matrixSeed))
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(in, sys)
	if err != nil {
		t.Fatal(err)
	}
	return in, o
}

// corruptions returns broken variants of a k-member answer: a member
// swapped for an outsider, a repeated member, one member too few, and no
// answer at all.
func corruptions(members []int) map[string][]int {
	outsider := 0
	for slices.Contains(members, outsider) {
		outsider++
	}
	swapped := slices.Clone(members)
	swapped[len(swapped)-1] = outsider
	repeated := slices.Clone(members)
	repeated[1] = repeated[0]
	return map[string][]int{
		"swapped":   swapped,
		"repeated":  repeated,
		"truncated": members[:len(members)-1],
		"nil":       nil,
	}
}

func TestOracleRejectsCorruptedCentralCluster(t *testing.T) {
	in, o := smallOracle(t)
	const k = 4
	b := in.bwLo
	got, err := o.sys.FindCluster(k, b)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatalf("no %d-cluster at %.3g Mbps; pick a feasible query", k, b)
	}
	if err := o.central(k, b, got); err != nil {
		t.Fatalf("oracle rejected the system's own answer: %v", err)
	}
	if err := o.direct(k, b, got); err != nil {
		t.Fatalf("direct oracle rejected the system's own answer: %v", err)
	}
	for name, bad := range corruptions(got) {
		if err := o.central(k, b, bad); err == nil {
			t.Errorf("%s answer %v accepted", name, bad)
		}
		if err := o.direct(k, b, bad); err == nil {
			t.Errorf("%s answer %v accepted by the direct check", name, bad)
		}
	}
}

func TestOracleRejectsCorruptedDecentralCluster(t *testing.T) {
	in, o := smallOracle(t)
	classes := o.sys.Classes()
	for _, q := range decentralQueries(in, 1, 200, classes) {
		res, err := o.sys.Query(int(q.start), int(q.k), q.b)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found() || q.k < 3 {
			continue
		}
		if err := o.decentral(int(q.start), int(q.k), q.b, res.Members); err != nil {
			t.Fatalf("oracle rejected the system's own answer: %v", err)
		}
		for name, bad := range corruptions(res.Members) {
			if err := o.decentral(int(q.start), int(q.k), q.b, bad); err == nil {
				t.Errorf("%s answer %v accepted", name, bad)
			}
		}
		return
	}
	t.Fatal("no decentral query of k >= 3 found a cluster")
}

func TestCheckCentralCountsWrongAnswers(t *testing.T) {
	in, o := smallOracle(t)
	qs := centralQueries(in, 1, 50)
	ans := make([][]int, len(qs))
	for i, q := range qs {
		m, err := o.sys.FindCluster(int(q.k), q.b)
		if err != nil {
			t.Fatal(err)
		}
		ans[i] = m
	}
	rep := newReport()
	checkCentral(rep, o, qs, ans, in.rng(11))
	if rep.failed != 0 {
		t.Fatalf("correct answers: %d failed (%v)", rep.failed, rep.problems)
	}
	for i := range ans {
		if ans[i] != nil {
			ans[i] = corruptions(ans[i])["swapped"]
			break
		}
	}
	rep = newReport()
	checkCentral(rep, o, qs, ans, in.rng(11))
	if rep.failed < 1 {
		t.Fatal("a corrupted answer was not counted as failed")
	}
}

func TestAlg1MatchesFindCluster(t *testing.T) {
	in, o := smallOracle(t)
	feasible, infeasible := 0, 0
	// The workload's k <= 16 always fits among 64 hosts; large k at a high
	// b does not.
	qs := centralQueries(in, 1, 300)
	for k := int32(20); k <= 60; k += 10 {
		qs = append(qs, query{k: k, b: in.bwHi})
	}
	for _, q := range qs {
		l, err := metric.DistanceForBandwidthConstraint(q.b, constant)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cluster.FindCluster(o.pipe.pred, int(q.k), l)
		if err != nil {
			t.Fatal(err)
		}
		if got := o.alg.find(int(q.k), l); !slices.Equal(got, want) {
			t.Fatalf("k=%d l=%.6g: own Algorithm 1 gives %v, cluster.FindCluster %v", q.k, l, got, want)
		}
		if want == nil {
			infeasible++
		} else {
			feasible++
			if !o.alg.witness(want, l) {
				t.Fatalf("k=%d l=%.6g: no witness pair for Algorithm 1's own answer %v", q.k, l, want)
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("%d feasible and %d infeasible queries; the test needs both", feasible, infeasible)
	}
}

// TestWitness uses hosts on a line, at 0, 1, 2, 3, 10 and 11.
func TestWitness(t *testing.T) {
	pos := []float64{0, 1, 2, 3, 10, 11}
	a := newAlg1(metric.FromFunc(len(pos), func(i, j int) float64 {
		return max(pos[i]-pos[j], pos[j]-pos[i])
	}))
	for _, c := range []struct {
		members []int
		l       float64
		want    bool
	}{
		{[]int{0, 1, 2}, 2, true},  // S*(0,2)
		{[]int{0, 1, 2}, 1, false}, // 0 and 2 are 2 apart
		{[]int{1, 2, 3}, 2, true},  // S*(1,3)
		{[]int{4, 5}, 1, true},     // S*(4,5)
		{[]int{0, 1, 4}, 2, false}, // 4 is 10 from 0
		{[]int{2, 3, 4}, 8, true},  // S*(2,4)
	} {
		if got := a.witness(c.members, c.l); got != c.want {
			t.Errorf("witness(%v, %v) = %v, want %v", c.members, c.l, got, c.want)
		}
	}
	if got := a.find(3, 2); !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("find(3, 2) = %v, want [0 1 2]", got)
	}
	if got := a.find(4, 2); got != nil {
		t.Errorf("find(4, 2) = %v, want nil", got)
	}
}
