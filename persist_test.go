package bwcluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	goruntime "runtime"
	"strings"
	"testing"
)

// TestSaveIndependentOfGOMAXPROCS: snapshots are content-addressed and
// pinned by goldens, so the same system built and saved under different
// core counts must encode to identical bytes.
func TestSaveIndependentOfGOMAXPROCS(t *testing.T) {
	raw := sampleBandwidth(t, 30, 11)
	save := func(procs int) []byte {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
		sys, err := New(raw, WithSeed(3), WithNCut(8))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := sys.SaveBytes()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if !bytes.Equal(save(1), save(4)) {
		t.Fatal("snapshot bytes depend on GOMAXPROCS")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	raw := sampleBandwidth(t, 30, 11)
	orig, err := New(raw, WithSeed(3), WithNCut(8))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := orig.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != orig.Len() || restored.Constant() != orig.Constant() {
		t.Fatalf("shape mismatch: %d/%v vs %d/%v",
			restored.Len(), restored.Constant(), orig.Len(), orig.Constant())
	}
	// The membership epoch survives the round trip: the serving tier
	// keys shard assignment and cache invalidation by it, so a replica
	// restored from a snapshot must agree with the builder.
	if restored.Epoch() != orig.Epoch() || orig.Epoch() == 0 {
		t.Fatalf("epoch mismatch: restored %d, orig %d", restored.Epoch(), orig.Epoch())
	}
	// Predictions identical.
	for u := 0; u < orig.Len(); u++ {
		for v := u + 1; v < orig.Len(); v++ {
			a, err := orig.PredictBandwidth(u, v)
			if err != nil {
				t.Fatal(err)
			}
			b, err := restored.PredictBandwidth(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("prediction mismatch at (%d,%d): %v vs %v", u, v, a, b)
			}
			ma, _ := orig.MeasuredBandwidth(u, v)
			mb, _ := restored.MeasuredBandwidth(u, v)
			if ma != mb {
				t.Fatalf("measurement mismatch at (%d,%d)", u, v)
			}
		}
	}
	// Queries identical (both engines are deterministic).
	classes := orig.Classes()
	for start := 0; start < orig.Len(); start += 7 {
		a, err := orig.Query(start, 4, classes[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Query(start, 4, classes[0])
		if err != nil {
			t.Fatal(err)
		}
		if a.Found() != b.Found() || a.Hops != b.Hops || len(a.Members) != len(b.Members) {
			t.Fatalf("query mismatch from %d: %+v vs %+v", start, a, b)
		}
		for i := range a.Members {
			if a.Members[i] != b.Members[i] {
				t.Fatalf("members mismatch from %d: %v vs %v", start, a.Members, b.Members)
			}
		}
	}
	// Labels survive.
	la, err := orig.DistanceLabel(5)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := restored.DistanceLabel(5)
	if err != nil {
		t.Fatal(err)
	}
	if la != lb {
		t.Fatalf("label mismatch: %q vs %q", la, lb)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadBytes([]byte("garbage")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := LoadBytes(nil); err == nil {
		t.Error("empty input should fail")
	}
	// A truncated snapshot must fail cleanly.
	sys, err := New(sampleBandwidth(t, 10, 12))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sys.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBytes(blob[:len(blob)/2]); err == nil {
		t.Error("truncated snapshot should fail")
	}
}

// TestLoadRejectsNonFiniteParameters: a snapshot whose constant or
// classes are NaN or infinite fails to load, as New fails on those
// options.
func TestLoadRejectsNonFiniteParameters(t *testing.T) {
	sys, err := New(sampleBandwidth(t, 10, 12))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sys.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name  string
		edit  func(*systemWire)
		wantS string
	}{
		{"NaN constant", func(w *systemWire) { w.C = math.NaN() }, "constant"},
		{"+Inf constant", func(w *systemWire) { w.C = math.Inf(1) }, "constant"},
		{"NaN class", func(w *systemWire) { w.Classes[0] = math.NaN() }, "class NaN"},
		{"+Inf class", func(w *systemWire) { w.Classes[0] = math.Inf(1) }, "class +Inf"},
		{"no classes", func(w *systemWire) { w.Classes = nil }, "bandwidth class"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var w systemWire
			if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
				t.Fatal(err)
			}
			tt.edit(&w)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(w); err != nil {
				t.Fatal(err)
			}
			_, err := LoadBytes(buf.Bytes())
			if err == nil || !strings.Contains(err.Error(), tt.wantS) {
				t.Errorf("Load: error %v, want one containing %q", err, tt.wantS)
			}
		})
	}
}

// TestLoadWireVersionTyped: a snapshot from another wire version fails
// with ErrWireVersion under errors.Is — the contract the fleet replica
// catch-up path relies on to tell version skew from corruption — while
// corruption keeps failing with a plain (non-ErrWireVersion) error.
func TestLoadWireVersionTyped(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(systemWire{Version: wireVersion + 1}); err != nil {
		t.Fatal(err)
	}
	_, err := LoadBytes(buf.Bytes())
	if err == nil {
		t.Fatal("version-skewed snapshot should fail")
	}
	if !errors.Is(err, ErrWireVersion) {
		t.Errorf("version skew error %v is not errors.Is(ErrWireVersion)", err)
	}
	if _, err := LoadBytes([]byte("garbage")); errors.Is(err, ErrWireVersion) {
		t.Errorf("corruption error %v must not report as a wire-version mismatch", err)
	}
}

func TestSaveToFailingWriter(t *testing.T) {
	sys, err := New(sampleBandwidth(t, 8, 13))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(failWriter{}); err == nil {
		t.Error("failing writer should error")
	}
	// Sanity: saving to a buffer works.
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty snapshot")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, bytes.ErrTooLarge }
