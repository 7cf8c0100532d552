package bwcluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"bwcluster/internal/cluster"
	"bwcluster/internal/construct"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
)

// systemWire is the persisted form of a System: the measurements, the
// knobs, and the built prediction forest. Derived state (predicted
// distance matrix, cluster index, overlay routing tables) is recomputed
// deterministically on load — it is cheaper to rebuild than the forest,
// whose construction consumed the measurements.
type systemWire struct {
	Version int
	C       float64
	NCut    int
	Classes []float64
	BW      *metric.Matrix
	Forest  *predtree.Forest
	// Workers is the requested worker-pool bound (WithParallelism), 0
	// for the default of one worker per CPU, which Load resolves on the
	// loading host. Snapshots from releases without the field decode as
	// 0 too.
	Workers int
	// Epoch is the forest's membership epoch at snapshot time. The tree
	// wire format does not carry the counter, so it rides here and Load
	// re-seats it — a replica restored from a builder's snapshot must
	// agree with the builder on the epoch, because the serving tier keys
	// its shard assignment and query cache by it. Snapshots from releases
	// without the field decode as 0, the epoch a decoded forest would
	// have started at anyway.
	Epoch uint64
}

// wireVersion guards against loading snapshots from incompatible
// releases. Version 2 changed the prediction-tree wire format to
// key-sorted entry slices so identical systems snapshot to identical
// bytes (the determinism invariant, DESIGN.md §8d).
const wireVersion = 2

// ErrWireVersion reports a snapshot whose wire version does not match
// this build's. Load wraps it with both versions, so errors.Is lets
// callers — the fleet replica catch-up path in particular — distinguish
// version skew (retry against an upgraded builder, or refuse to serve)
// from a corrupt or truncated snapshot (which decodes to a plain gob
// error and must never be retried as-is).
var ErrWireVersion = errors.New("bwcluster: snapshot wire version mismatch")

// Save writes the system to w in a compact binary format. Load restores
// it without re-running any bandwidth measurements.
func (s *System) Save(w io.Writer) error {
	snap := systemWire{
		Version: wireVersion,
		C:       s.c,
		NCut:    s.ovCfg.NCut,
		Classes: s.classes,
		BW:      s.bw,
		Forest:  s.state.Forest,
		Workers: s.parallelism,
		Epoch:   s.state.Forest.Epoch(),
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("bwcluster: save system: %w", err)
	}
	return nil
}

// SaveBytes is a convenience wrapper around Save.
func (s *System) SaveBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Load restores a System previously written by Save, rebuilding the
// derived query structures (prediction matrix, cluster index, overlay
// routing tables) from the persisted forest.
func Load(r io.Reader) (*System, error) {
	var snap systemWire
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("bwcluster: load system: %w", err)
	}
	if snap.Version != wireVersion {
		return nil, fmt.Errorf("bwcluster: load system: %w: snapshot version %d, want %d",
			ErrWireVersion, snap.Version, wireVersion)
	}
	if snap.BW == nil || snap.Forest == nil {
		return nil, fmt.Errorf("bwcluster: load system: incomplete snapshot")
	}
	// The snapshot's knobs pass the checks New applies to its options.
	for _, opt := range []Option{WithConstant(snap.C), WithNCut(snap.NCut), WithBandwidthClasses(snap.Classes)} {
		if err := opt(&options{}); err != nil {
			return nil, fmt.Errorf("bwcluster: load system: invalid parameters: %w", err)
		}
	}
	snap.Forest.SetEpoch(snap.Epoch)
	distClasses, err := overlay.ClassesFromBandwidths(snap.Classes, snap.C)
	if err != nil {
		return nil, fmt.Errorf("bwcluster: load system: %w", err)
	}
	ovCfg := overlay.Config{NCut: snap.NCut, Classes: distClasses}
	workers := cluster.Workers(snap.Workers, 0)
	st, err := construct.Derive(snap.Forest, snap.BW.N(), ovCfg, workers)
	if err != nil {
		return nil, fmt.Errorf("bwcluster: load system: %w", err)
	}
	return &System{
		state: st, c: snap.C, workers: workers, parallelism: snap.Workers,
		bw: snap.BW, ovCfg: ovCfg, classes: snap.Classes,
	}, nil
}

// LoadBytes is a convenience wrapper around Load.
func LoadBytes(b []byte) (*System, error) {
	return Load(bytes.NewReader(b))
}
