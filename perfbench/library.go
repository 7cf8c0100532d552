package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"bwcluster"
)

// timeSetup runs fn after a forced collection and returns how long it
// took in seconds.
func timeSetup(fn func() error) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

// setupPool builds one system per pool matrix with bwcluster.New, timing
// each from the input matrix to a system that can serve its first query.
func setupPool(pool []*inputs) ([]*bwcluster.System, []float64, error) {
	systems := make([]*bwcluster.System, len(pool))
	setups := make([]float64, len(pool))
	for i, in := range pool {
		var err error
		setups[i], err = timeSetup(func() error {
			var err error
			systems[i], err = bwcluster.New(in.raw, bwcluster.WithSeed(in.matrixSeed))
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("build system: %w", err)
		}
	}
	return systems, setups, nil
}

// runCentral measures System.FindCluster, the Algorithm 1 scan plus
// memo insert path, over every matrix of the pool.
func runCentral(pool []*inputs, dur time.Duration) (*report, error) {
	rep := newReport()
	systems, setups, err := setupPool(pool)
	if err != nil {
		return nil, err
	}
	qs := make([][]query, len(pool))
	for i, in := range pool {
		qs[i] = centralQueries(in, 1, perSystemInputs(dur, centralRate, len(pool)))
	}
	ph, ans := centralPhase(rep, systems, qs, dur, nil)
	// Untimed, issue the rest of the generated queries too, so every run
	// ends with the memo of every generated query, a count set by
	// --seconds alone: bounded by the phase, a faster run would report a
	// bigger heap.
	t0 := time.Now()
	for m, sys := range systems {
		for _, q := range qs[m][len(ans[m]):] {
			if _, err := sys.FindCluster(int(q.k), q.b); err != nil {
				return nil, fmt.Errorf("fill memo (k=%d b=%.6g): %w", q.k, q.b, err)
			}
		}
	}
	rep.facts["memo_fill_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	var t tally
	for m, in := range pool {
		o, err := newOracle(in, systems[m])
		if err != nil {
			return nil, err
		}
		t.add(checkCentral(rep, o, qs[m], ans[m], in.rng(11)))
	}
	rep.facts["check_s"] = time.Since(t0).Seconds()
	t.centralFacts(rep)
	if err := endToEnd(rep, setups, ph); err != nil {
		return nil, err
	}
	// Only the systems and their memos are live from here on: the
	// queries, answers, oracles and latencies are garbage.
	rep.metric("heap_mb", "MB", heapMB())
	runtime.KeepAlive(systems)
	return rep, nil
}

// centralPhase runs qs[m] against systems[m] until dur elapses (see
// cycle), returning the phase and each system's answers.
func centralPhase(rep *report, systems []*bwcluster.System, qs [][]query, dur time.Duration, spans *spanLog) (*phase, [][][]int) {
	ans := make([][][]int, len(systems))
	for m := range ans {
		ans[m] = make([][]int, 0, len(qs[m]))
	}
	ph := cycle(rep, len(systems), len(qs[0]), dur, spans, layerCall, false, func(m, i int, _ bool) {
		q := qs[m][i]
		members, err := systems[m].FindCluster(int(q.k), q.b)
		if err != nil {
			rep.fail(1, "system %d query %d (k=%d b=%.6g): %v", m, i, q.k, q.b, err)
		}
		ans[m] = append(ans[m], members)
	})
	return ph, ans
}

// runDecentral measures System.Query, Algorithm 4 over the converged
// synchronous overlay, over every matrix of the pool.
func runDecentral(pool []*inputs, dur time.Duration) (*report, error) {
	rep := newReport()
	systems, setups, err := setupPool(pool)
	if err != nil {
		return nil, err
	}
	qs := make([][]query, len(pool))
	for i, in := range pool {
		qs[i] = decentralQueries(in, 2, perSystemInputs(dur, decentralRate, len(pool)), systems[i].Classes())
	}
	ph, res := decentralPhase(rep, systems, qs, dur, nil)
	t0 := time.Now()
	var t tally
	for m, in := range pool {
		o, err := newOracle(in, systems[m])
		if err != nil {
			return nil, err
		}
		t.add(checkDecentral(rep, o, qs[m], res[m]))
	}
	rep.facts["check_s"] = time.Since(t0).Seconds()
	t.decentralFacts(rep)
	if err := endToEnd(rep, setups, ph); err != nil {
		return nil, err
	}
	rep.metric("heap_mb", "MB", heapMB())
	runtime.KeepAlive(systems)
	return rep, nil
}

// decentralPhase runs qs[m] against systems[m] until dur elapses (see
// cycle), returning the phase and each system's results.
func decentralPhase(rep *report, systems []*bwcluster.System, qs [][]query, dur time.Duration, spans *spanLog) (*phase, [][]bwcluster.QueryResult) {
	res := make([][]bwcluster.QueryResult, len(systems))
	for m := range res {
		res[m] = make([]bwcluster.QueryResult, 0, len(qs[m]))
	}
	ph := cycle(rep, len(systems), len(qs[0]), dur, spans, layerCall, true, func(m, i int, _ bool) {
		q := qs[m][i]
		r, err := systems[m].Query(int(q.start), int(q.k), q.b)
		if err != nil {
			rep.fail(1, "system %d query %d (start=%d k=%d b=%.6g): %v", m, i, q.start, q.k, q.b, err)
		}
		res[m] = append(res[m], r)
	})
	return ph, res
}

// newOracle rebuilds the construction pipeline from the run's inputs
// and verifies it predicts exactly what sys predicts.
func newOracle(in *inputs, sys *bwcluster.System) (*oracle, error) {
	pipe, err := rebuild(in)
	if err != nil {
		return nil, err
	}
	if err := pipe.verify(sys, in.rng(10)); err != nil {
		return nil, err
	}
	return &oracle{sys: sys, pipe: pipe, alg: newAlg1(pipe.pred)}, nil
}

// tally counts properties of checked answers, summed over the pool.
type tally struct {
	answers int64
	empty   int64 // no cluster returned
	belowB  int64 // a cluster with some member pair predicted below b
	hops    int64 // overlay hops (decentralized answers)
}

func (t *tally) add(u tally) {
	t.answers += u.answers
	t.empty += u.empty
	t.belowB += u.belowB
	t.hops += u.hops
}

func (t tally) centralFacts(rep *report) {
	n := float64(max(t.answers, 1))
	rep.facts["infeasible_share"] = float64(t.empty) / n
	rep.facts["pair_below_b_share"] = float64(t.belowB) / float64(max(t.answers-t.empty, 1))
}

func (t tally) decentralFacts(rep *report) {
	n := float64(max(t.answers, 1))
	rep.facts["found_share"] = float64(t.answers-t.empty) / n
	rep.facts["pair_below_b_share"] = float64(t.belowB) / float64(max(t.answers-t.empty, 1))
	rep.facts["hops_mean"] = float64(t.hops) / n
}

// checkDecentral checks every decentralized answer with the oracle,
// counting wrong ones as failed.
func checkDecentral(rep *report, o *oracle, qs []query, res []bwcluster.QueryResult) tally {
	var empty, below, hops atomic.Int64
	failed, first := checkAll(len(res), func(i int) error {
		q, r := qs[i], res[i]
		hops.Add(int64(r.Hops))
		if !r.Found() {
			empty.Add(1)
		} else if belowB(o.sys, r.Members, q.b) {
			below.Add(1)
		}
		if err := o.decentral(int(q.start), int(q.k), q.b, r.Members); err != nil {
			return fmt.Errorf("query %d (start=%d k=%d b=%.6g): %w", i, q.start, q.k, q.b, err)
		}
		return nil
	})
	if failed > 0 {
		rep.fail(failed, "%d wrong decentral answers; first: %v", failed, first)
	}
	return tally{answers: int64(len(res)), empty: empty.Load(), belowB: below.Load(), hops: hops.Load()}
}
