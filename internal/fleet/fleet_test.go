package fleet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"bwcluster"
	"bwcluster/internal/dataset"
	"bwcluster/internal/transport"
)

// testSystem builds a small deterministic system.
func testSystem(t testing.TB, n int) *bwcluster.System {
	t.Helper()
	m, err := dataset.Generate(dataset.HPConfig().WithN(n), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
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
	sys, err := bwcluster.New(raw, bwcluster.WithNCut(10), bwcluster.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestAssignPartitionsCompletely(t *testing.T) {
	hosts := make([]int, 50)
	for i := range hosts {
		hosts[i] = i
	}
	parts := Assign(hosts, 3, 7)
	seen := make(map[int]int)
	for s, part := range parts {
		for _, h := range part {
			if prev, dup := seen[h]; dup {
				t.Fatalf("host %d assigned to shards %d and %d", h, prev, s)
			}
			seen[h] = s
		}
	}
	if len(seen) != len(hosts) {
		t.Fatalf("assigned %d hosts, want %d", len(seen), len(hosts))
	}
	// Rendezvous keeps the partition roughly balanced: no shard may be
	// empty at 50 hosts over 3 shards.
	for s, part := range parts {
		if len(part) == 0 {
			t.Errorf("shard %d empty", s)
		}
	}
	// Owner agrees with Assign for every host.
	for s, part := range parts {
		for _, h := range part {
			if got := Owner(h, 3, 7); got != s {
				t.Errorf("Owner(%d) = %d, Assign put it on %d", h, got, s)
			}
		}
	}
}

func TestAssignDeterministicAndEpochKeyed(t *testing.T) {
	hosts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	a := Assign(hosts, 4, 3)
	b := Assign(hosts, 4, 3)
	for s := range a {
		if len(a[s]) != len(b[s]) {
			t.Fatalf("assignment not deterministic at shard %d", s)
		}
		for i := range a[s] {
			if a[s][i] != b[s][i] {
				t.Fatalf("assignment not deterministic at shard %d", s)
			}
		}
	}
	// A different epoch must move at least one host (overwhelmingly
	// likely at 12 hosts; pinned by the fixed hash).
	c := Assign(hosts, 4, 4)
	moved := false
	for s := range a {
		if len(a[s]) != len(c[s]) {
			moved = true
			break
		}
		for i := range a[s] {
			if a[s][i] != c[s][i] {
				moved = true
				break
			}
		}
	}
	if !moved {
		t.Error("epoch bump did not change the assignment")
	}
	// Degenerate shapes.
	if parts := Assign(hosts, 0, 1); len(parts) != 1 || len(parts[0]) != len(hosts) {
		t.Error("shards<1 must collapse to one shard holding everything")
	}
}

func TestLimiterBurstQueueShed(t *testing.T) {
	l := NewLimiter(AdmissionConfig{Rate: 10, Burst: 2, Queue: 2})
	now := time.Unix(1000, 0)
	// Burst passes immediately.
	for i := 0; i < 2; i++ {
		if wait, ok := l.Admit("a", now); !ok || wait != 0 {
			t.Fatalf("burst request %d: wait=%v ok=%v", i, wait, ok)
		}
	}
	// Next two queue with growing waits (rate 10/s -> 100ms per token).
	w1, ok := l.Admit("a", now)
	if !ok || w1 != 100*time.Millisecond {
		t.Fatalf("first queued wait = %v ok=%v, want 100ms", w1, ok)
	}
	w2, ok := l.Admit("a", now)
	if !ok || w2 != 200*time.Millisecond {
		t.Fatalf("second queued wait = %v ok=%v, want 200ms", w2, ok)
	}
	// Queue full: shed.
	if _, ok := l.Admit("a", now); ok {
		t.Fatal("third over-burst request must shed")
	}
	// Tenants are independent.
	if _, ok := l.Admit("b", now); !ok {
		t.Fatal("tenant b must have its own bucket")
	}
	// Refill restores service.
	if wait, ok := l.Admit("a", now.Add(time.Second)); !ok || wait != 0 {
		t.Fatalf("after refill: wait=%v ok=%v", wait, ok)
	}
	if l.Tenants() != 2 {
		t.Errorf("tenants = %d, want 2", l.Tenants())
	}
}

// TestLimiterTenantsBounded: 100k distinct tenants, one request each
// 1ms apart, with buckets that refill in 10ms. Live buckets must stay
// near the ~10 tenants of the refill window, not grow with every
// X-Tenant value ever sent.
func TestLimiterTenantsBounded(t *testing.T) {
	l := NewLimiter(AdmissionConfig{Rate: 100, Burst: 1})
	now := time.Unix(1000, 0)
	peak := 0
	for i := 0; i < 100_000; i++ {
		if wait, ok := l.Admit(fmt.Sprintf("tenant-%d", i), now); !ok || wait != 0 {
			t.Fatalf("fresh tenant %d: wait=%v ok=%v", i, wait, ok)
		}
		peak = max(peak, l.Tenants())
		now = now.Add(time.Millisecond)
	}
	if peak > 2*minSweep {
		t.Errorf("peak tenants = %d, want <= %d", peak, 2*minSweep)
	}
}

// TestLimiterEvictionKeepsDecisions: on a seeded workload over a
// non-decreasing synthetic clock, the evicting limiter answers every
// Admit exactly as one that never evicts.
func TestLimiterEvictionKeepsDecisions(t *testing.T) {
	for _, cfg := range []AdmissionConfig{
		{Rate: 100, Burst: 1},
		{Rate: 50, Burst: 3, Queue: 2},
		{Rate: 1000, Burst: 0.5, Queue: 4},
	} {
		rng := rand.New(rand.NewSource(7))
		l := NewLimiter(cfg)
		ref := NewLimiter(cfg)
		ref.sweepAt = math.MaxInt // never sweeps
		now := time.Unix(1000, 0)
		for i := 0; i < 50_000; i++ {
			// A hot head of tenants that queue and shed, and a long
			// tail that churns the map through many sweeps.
			tenant := fmt.Sprintf("hot-%d", rng.Intn(4))
			if rng.Intn(2) == 0 {
				tenant = fmt.Sprintf("tail-%d", rng.Intn(5000))
			}
			if rng.Intn(3) > 0 { // a third of requests share a timestamp
				now = now.Add(time.Duration(rng.Intn(2000)) * time.Microsecond)
			}
			w1, ok1 := l.Admit(tenant, now)
			w2, ok2 := ref.Admit(tenant, now)
			if w1 != w2 || ok1 != ok2 {
				t.Fatalf("%+v request %d (%s): evicting (%v, %v) != never-evicting (%v, %v)",
					cfg, i, tenant, w1, ok1, w2, ok2)
			}
		}
		if l.Tenants() >= ref.Tenants() {
			t.Errorf("%+v: evicting limiter holds %d tenants, never-evicting %d; nothing was swept",
				cfg, l.Tenants(), ref.Tenants())
		}
	}
}

func TestCacheHitMissEvictFlush(t *testing.T) {
	c := NewCache(2)
	k1 := CacheKey{Endpoint: "/v1/cluster", Params: FormatParams(4, 15, "central", 0), Epoch: 0}
	k2 := CacheKey{Endpoint: "/v1/cluster", Params: FormatParams(5, 15, "central", 0), Epoch: 0}
	k3 := CacheKey{Endpoint: "/v1/cluster", Params: FormatParams(6, 15, "central", 0), Epoch: 0}
	if _, ok := c.Get(k1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k1, CachedResponse{Status: 200, Body: []byte("one")})
	if resp, ok := c.Get(k1); !ok || string(resp.Body) != "one" {
		t.Fatalf("get after put: %v %q", ok, resp.Body)
	}
	// FIFO eviction at capacity 2: inserting k3 evicts k1.
	c.Put(k2, CachedResponse{Status: 200, Body: []byte("two")})
	c.Put(k3, CachedResponse{Status: 200, Body: []byte("three")})
	if _, ok := c.Get(k1); ok {
		t.Fatal("k1 should have been evicted FIFO")
	}
	if _, ok := c.Get(k3); !ok {
		t.Fatal("k3 should be cached")
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	// Epoch bump flushes; same epoch or older does not.
	if c.Bump(0) {
		t.Fatal("bump to current epoch flushed")
	}
	if !c.Bump(3) {
		t.Fatal("bump to newer epoch did not flush")
	}
	if _, ok := c.Get(k3); ok {
		t.Fatal("entry survived the flush")
	}
	// A slow proxy completing with a pre-flush epoch must not resurrect.
	c.Put(k3, CachedResponse{Status: 200, Body: []byte("stale")})
	if _, ok := c.Get(k3); ok {
		t.Fatal("stale-epoch put was accepted after flush")
	}
	if c.Epoch() != 3 {
		t.Errorf("epoch = %d, want 3", c.Epoch())
	}
	if c.HitRate() <= 0 || c.HitRate() >= 1 {
		t.Errorf("hit rate = %v, want in (0,1)", c.HitRate())
	}
}

func TestSnapshotAssembler(t *testing.T) {
	var a assembler
	chunk := func(id uint64, seq, total int, data string) *transport.Snapshot {
		return &transport.Snapshot{ID: id, Epoch: 1, Seq: seq, Total: total, Data: []byte(data)}
	}
	// Out-of-order chunks assemble in Seq order.
	if _, _, done := a.offer(chunk(1, 1, 3, "B")); done {
		t.Fatal("incomplete stream reported done")
	}
	if _, _, done := a.offer(chunk(1, 0, 3, "A")); done {
		t.Fatal("incomplete stream reported done")
	}
	// A stale stream's chunk is ignored mid-assembly.
	if _, _, done := a.offer(chunk(0, 0, 1, "stale")); done {
		t.Fatal("stale stream completed")
	}
	blob, epoch, done := a.offer(chunk(1, 2, 3, "C"))
	if !done || string(blob) != "ABC" || epoch != 1 {
		t.Fatalf("assembled %q epoch=%d done=%v", blob, epoch, done)
	}
	// A newer stream discards a partial older one.
	a.offer(chunk(2, 0, 2, "X"))
	a.offer(chunk(3, 0, 1, "fresh"))
	if _, _, done := a.offer(chunk(2, 1, 2, "Y")); done {
		t.Fatal("discarded stream completed")
	}
	// Malformed chunks are rejected.
	if _, _, done := a.offer(&transport.Snapshot{ID: 9, Seq: 5, Total: 2, Data: []byte("z")}); done {
		t.Fatal("out-of-range seq accepted")
	}
}

// TestReplicateOverTransport: a builder shard snapshot-streams a real
// system to a replica endpoint over an in-process transport; the
// replica restores an equivalent system. Version-skewed and corrupt
// streams surface through OnError — skew recognizably via
// bwcluster.ErrWireVersion — without ever reaching OnSystem.
func TestReplicateOverTransport(t *testing.T) {
	sys := testSystem(t, 20)
	tr := transport.NewChan(0)
	defer tr.Close()

	systems := make(chan *bwcluster.System, 1)
	errs := make(chan error, 4)
	rep, err := NewReplicator(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep.OnSystem = func(got *bwcluster.System, epoch uint64) { systems <- got }
	rep.OnError = func(err error) { errs <- err }
	rep.Start()
	defer rep.Stop()

	blob, err := sys.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := SendSnapshot(tr, 0, 1, 1, sys.Epoch(), blob); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-systems:
		if got.Len() != sys.Len() || got.Epoch() != sys.Epoch() {
			t.Fatalf("restored %d hosts epoch %d, want %d/%d", got.Len(), got.Epoch(), sys.Len(), sys.Epoch())
		}
		a, _ := sys.FindCluster(4, 15)
		b, _ := got.FindCluster(4, 15)
		if len(a) != len(b) {
			t.Fatalf("replica answers differ: %v vs %v", a, b)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot stream did not complete")
	}

	// Corruption: a garbage stream is reported and discarded.
	if err := SendSnapshot(tr, 0, 1, 2, 0, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		if !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("corrupt stream error = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("corrupt stream not reported")
	}

	// Version skew: a snapshot whose wire version differs fails with the
	// typed sentinel, telling the replica to refuse service, not retry.
	var skew bytes.Buffer
	if err := gob.NewEncoder(&skew).Encode(struct{ Version int }{Version: 99}); err != nil {
		t.Fatal(err)
	}
	if err := SendSnapshot(tr, 0, 1, 3, 0, skew.Bytes()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		if !strings.Contains(err.Error(), "incompatible release") {
			t.Fatalf("version-skew stream error = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("version-skew stream not reported")
	}
	select {
	case <-systems:
		t.Fatal("a bad stream reached OnSystem")
	default:
	}
}
