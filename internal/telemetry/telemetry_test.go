package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Add should panic")
		}
	}()
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("test_gauge", "help")
	g.Set(2.5)
	g.Add(-1)
	g.Add(0.5)
	if got := g.Value(); got != 2.0 {
		t.Errorf("Value = %v, want 2.0", got)
	}
}

func TestHistogramBucketCorrectness(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_seconds", "help", []float64{1, 2, 5})
	// Placement: 0.5→le=1, 1→le=1 (bounds are inclusive upper), 1.5→le=2,
	// 5→le=5, 100→+Inf.
	for _, v := range []float64{0.5, 1, 1.5, 5, 100} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{ // cumulative: le=1, le=2, le=5, +Inf
		`test_seconds_bucket{le="1"} 2`,
		`test_seconds_bucket{le="2"} 3`,
		`test_seconds_bucket{le="5"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, sb.String())
		}
	}
	if h.count.Load() != 5 {
		t.Errorf("Count = %d, want 5", h.count.Load())
	}
	if h.Sum() != 108 {
		t.Errorf("Sum = %v, want 108", h.Sum())
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range []string{
		"# HELP lat_seconds latency",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 30.55",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("msgs_total", "messages", "kind")
	v.Inc("crt")
	v.Inc("crt")
	v.Inc("query")
	if got := v.Value("crt"); got != 2 {
		t.Errorf("crt = %d", got)
	}
	if got := v.Value("nodeinfo"); got != 0 {
		t.Errorf("unused child = %d, want 0", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Children sorted by label value.
	crt := strings.Index(out, `msgs_total{kind="crt"} 2`)
	query := strings.Index(out, `msgs_total{kind="query"} 1`)
	if crt < 0 || query < 0 || crt > query {
		t.Errorf("vec exposition wrong:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	r.NewGauge("dup_total", "")
}

func TestInvalidNamePanics(t *testing.T) {
	for _, name := range []string{"", "9starts_with_digit", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q should panic", name)
				}
			}()
			NewRegistry().NewCounter(name, "")
		}()
	}
}

// TestConcurrentInstruments exercises every instrument from many
// goroutines while a reader renders exposition; run under -race this is
// the registry's thread-safety proof.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	g := r.NewGauge("g", "")
	h := r.NewHistogram("h_seconds", "", []float64{1, 10})
	v := r.NewCounterVec("v_total", "", "kind")
	kinds := []string{"a", "b", "c"}
	const goroutines, iters = 16, 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j % 20))
				v.Inc(kinds[j%len(kinds)])
				if j%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*iters {
		t.Errorf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := g.Value(); got != goroutines*iters {
		t.Errorf("gauge = %v, want %d", got, goroutines*iters)
	}
	if got := h.count.Load(); got != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", got, goroutines*iters)
	}
	var total uint64
	for _, k := range kinds {
		total += v.Value(k)
	}
	if total != goroutines*iters {
		t.Errorf("vec total = %d, want %d", total, goroutines*iters)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if exp[i] != want[i] {
			t.Errorf("ExponentialBuckets = %v", exp)
		}
	}
	for _, bs := range [][]float64{DurationBuckets(), HopBuckets()} {
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				t.Errorf("bounds not ascending: %v", bs)
			}
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:              "0",
		2:              "2",
		0.25:           "0.25",
		math.Inf(1):    "+Inf",
		math.Inf(-1):   "-Inf",
		0.000123456789: "0.000123456789",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestDefaultRegistryHasInstrumentedFamilies ensures the package-level
// wrappers land on Default.
func TestDefaultRegistryHasInstrumentedFamilies(t *testing.T) {
	var sb strings.Builder
	if err := Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	// Importing this package alone registers nothing; just confirm the
	// default registry renders without error and Default is stable.
	if Default() != std {
		t.Error("Default() is not the std registry")
	}
	_ = sb.String()
}
