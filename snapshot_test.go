package bwcluster

import (
	"reflect"
	"testing"
	"time"

	"bwcluster/internal/construct"
)

// A System holds one predicted-distance snapshot: the cluster index's
// matrix is the overlay's snapshot, and an async runtime reads that same
// snapshot instead of rebuilding it. The overlay's and the runtime's
// fields are unexported in their packages, so the check compares
// addresses through reflect.
func TestSystemSharesOneSnapshot(t *testing.T) {
	sys, err := New(sampleBandwidth(t, 24, 5), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sys.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := NewLatency(syntheticLatency(t, 24, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		d    construct.State
	}{{"New", sys.state}, {"Load", loaded.state}, {"NewLatency", lat.state}} {
		if c.d.PredDist != c.d.Dist.Matrix() {
			t.Errorf("%s: PredDist is not the snapshot's matrix", c.name)
		}
		if fieldAddr(t, c.d.Net, "dist") != reflect.ValueOf(c.d.Dist).Pointer() {
			t.Errorf("%s: the overlay reads another snapshot", c.name)
		}
	}
	art, err := sys.AsyncRuntime(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer art.Close()
	// atomic.Pointer holds its value in the field v.
	if fieldAddr(t, art.rt, "table", "v") != reflect.ValueOf(sys.state.Dist).Pointer() {
		t.Error("the async runtime built its own snapshot")
	}
}

// fieldAddr returns the address held by the pointer field at path in
// the struct x points to.
func fieldAddr(t *testing.T, x any, path ...string) uintptr {
	t.Helper()
	v := reflect.ValueOf(x).Elem()
	for _, name := range path {
		if v = v.FieldByName(name); !v.IsValid() {
			t.Fatalf("%T has no field path %v", x, path)
		}
	}
	return v.Pointer()
}
