package main

import (
	"fmt"
	"math/rand"

	"bwcluster"
	"bwcluster/internal/dataset"
	"bwcluster/internal/stats"
)

const (
	// hostCount is the matrix size every workload runs on.
	hostCount = 512
	// poolSize is how many matrices make up the benchmark's fixed pool.
	// The pool does not depend on --seed: at n = 512 one HP-like matrix
	// served the same query mix at half another's rate (the row where
	// Algorithm 1 first succeeds, the overlay's shape), so a matrix drawn
	// per seed made every run a different workload. The seed draws the
	// queries instead, and a run spreads its query phase over the whole
	// pool so no one matrix's layout decides a result.
	poolSize = 4
	// constant is the rational-transform constant bwcluster.New uses by
	// default; the oracle converts bandwidths to distances with it.
	constant = bwcluster.DefaultC
	// Inputs are generated up front, for a phase at these query rates (per
	// second, over all of a workload's systems). Measured on the 2-vCPU VM
	// the benchmark was built on, this code issues 40k-59k central and
	// 3.2k-6.7k decentral queries per second (whole phase, unscaled), so
	// decentral has over 6x headroom and central 1.4x-2x. Central cannot
	// have 10x: the cluster memo keeps
	// every answer (156 MB after 800k queries), so 10x the inputs would
	// take 1.5 GB. Code that outruns its inputs ends the phase early
	// instead (see cycle): it is still measured over every generated
	// query, and the run stays correct.
	centralRate   = 80000
	decentralRate = 40000
	fleetRate     = 40000
)

// inputs is one matrix of the pool and the workload seed its queries are
// drawn from; everything a run uses is derived before any timing.
type inputs struct {
	matrixSeed int64       // dataset.Generate and bwcluster.WithSeed
	seed       int64       // the workload seed (--seed)
	raw        [][]float64 // n x n Mbps, zero diagonal
	bwLo, bwHi float64     // 10th and 90th percentile of measured bandwidth
}

// newPool generates the pool's matrices, hostCount hosts each, with seed
// as the workload seed.
func newPool(seed int64) ([]*inputs, error) {
	pool := make([]*inputs, poolSize)
	for i := range pool {
		in, err := newInputs(int64(i+1), seed, hostCount)
		if err != nil {
			return nil, err
		}
		pool[i] = in
	}
	return pool, nil
}

// newInputs generates an n-host HP-like matrix from matrixSeed (the
// benchmark always uses hostCount; the self-tests use smaller ones).
func newInputs(matrixSeed, seed int64, n int) (*inputs, error) {
	m, err := dataset.Generate(dataset.HPConfig().WithN(n), rand.New(rand.NewSource(matrixSeed)))
	if err != nil {
		return nil, fmt.Errorf("generate matrix: %w", err)
	}
	raw := make([][]float64, m.N())
	for i := range raw {
		raw[i] = make([]float64, m.N())
		for j := range raw[i] {
			if i != j {
				raw[i][j] = m.At(i, j)
			}
		}
	}
	vals := m.Values()
	lo, err := stats.Percentile(vals, 10)
	if err != nil {
		return nil, err
	}
	hi, err := stats.Percentile(vals, 90)
	if err != nil {
		return nil, err
	}
	return &inputs{matrixSeed: matrixSeed, seed: seed, raw: raw, bwLo: lo, bwHi: hi}, nil
}

// rng returns an independent stream for one purpose, derived from the
// workload seed and the matrix.
func (in *inputs) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(in.seed*1_000_003 + in.matrixSeed*1_009 + stream))
}

// query is one cluster query: k hosts with pairwise bandwidth >= b Mbps,
// entering the overlay at start (decentralized queries only).
type query struct {
	k, start int32
	b        float64
}

// centralQueries draws k uniform in 2..16 and b continuous between the
// 10th and 90th bandwidth percentile, so (k, b) pairs practically never
// repeat.
func centralQueries(in *inputs, stream int64, count int) []query {
	r := in.rng(stream)
	qs := make([]query, count)
	for i := range qs {
		qs[i] = query{k: int32(2 + r.Intn(15)), b: in.bwLo + r.Float64()*(in.bwHi-in.bwLo)}
	}
	return qs
}

// decentralQueries draws seeded start hosts, k uniform in 2..16 and b on
// the system's bandwidth-class grid (a b above the top class has no
// class to snap to and is an error, so the grid is the whole range).
func decentralQueries(in *inputs, stream int64, count int, classes []float64) []query {
	r := in.rng(stream)
	qs := make([]query, count)
	for i := range qs {
		qs[i] = query{k: int32(2 + r.Intn(15)), start: int32(r.Intn(len(in.raw))), b: classes[r.Intn(len(classes))]}
	}
	return qs
}
