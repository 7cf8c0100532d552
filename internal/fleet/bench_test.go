package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bwcluster/internal/transport"
)

// benchFleet lazily stands up one single-shard fleet (a real HTTP shard
// behind an in-process router) shared by every benchmark iteration and
// -cpu level: the benchmarks measure the router's serving path, not
// fleet startup.
var benchFleet struct {
	once   sync.Once
	router *Router
	err    error
}

func benchRouter(b *testing.B) *Router {
	b.Helper()
	benchFleet.once.Do(func() {
		sys := testSystem(b, 24)
		tr := transport.NewChan(0)
		sh := NewShard(ShardConfig{
			Index: 0, Shards: 1, Transport: tr,
			Tick: time.Millisecond, Logger: discardLogger(),
		})
		if err := sh.Install(sys); err != nil {
			benchFleet.err = err
			return
		}
		shardSrv := httptest.NewServer(sh.Handler())
		rt := NewRouter(RouterConfig{
			Shards: []string{shardSrv.URL},
			Logger: discardLogger(),
			// The benchmark measures serving cost, not shedding.
			Admission:     AdmissionConfig{Rate: 1e9, Queue: 1 << 20},
			ProbeInterval: 5 * time.Millisecond,
		})
		rt.Start()
		deadline := time.Now().Add(10 * time.Second)
		for {
			rec := httptest.NewRecorder()
			rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/ready", nil))
			if rec.Code == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				benchFleet.err = fmt.Errorf("bench fleet never became ready")
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		benchFleet.router = rt
	})
	if benchFleet.err != nil {
		b.Fatal(benchFleet.err)
	}
	return benchFleet.router
}

func benchServe(b *testing.B, rt *Router, url string) {
	rec := httptest.NewRecorder()
	rec.Body = nil
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d from %s", rec.Code, url)
	}
}

// BenchmarkFleetQueryCache pairs the router's two /v1/cluster serving
// paths, measured at the router handler (the shard hop is real HTTP,
// the client hop is a recorder, so the pair isolates what the cache
// saves): "uncached" makes every request a distinct cache key (the
// central engine ignores start, but the key includes it), so each one
// pays admission + proxy + shard FindCluster; "cached" replays one hot
// key. The bench gate (cmd/bwc-benchgate) requires the cached path to be
// at least 5x cheaper — if it is not, the cache is pure overhead and
// the zipf head of real traffic gains nothing.
func BenchmarkFleetQueryCache(b *testing.B) {
	rt := benchRouter(b)
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchServe(b, rt, fmt.Sprintf("/v1/cluster?k=4&b=15&start=%d", i))
		}
	})
	b.Run("cached", func(b *testing.B) {
		const url = "/v1/cluster?k=4&b=15"
		benchServe(b, rt, url) // warm the key
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchServe(b, rt, url)
		}
	})
}
