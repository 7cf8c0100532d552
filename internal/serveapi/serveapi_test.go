package serveapi

import (
	"net/http/httptest"
	"testing"
)

func TestRequestIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := nextRequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
	}
}

// FloatParam accepts finite numbers only: NaN and ±Inf parse as floats
// but are not bandwidths, and every handler answers them with a 400.
func TestFloatParamRejectsNonFinite(t *testing.T) {
	for raw, ok := range map[string]bool{
		"50": true, "0.5": true, "-3": true, "1e3": true,
		"NaN": false, "nan": false, "Inf": false, "+Inf": false, "-Inf": false,
		"infinity": false, "abc": false, "": false,
	} {
		v, err := FloatParam(httptest.NewRequest("GET", "/v1/cluster?b="+raw, nil), "b")
		if (err == nil) != ok {
			t.Errorf("b=%q: got (%v, %v), want ok=%v", raw, v, err, ok)
		}
	}
}
