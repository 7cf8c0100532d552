package runtime

import (
	"testing"

	"bwcluster/internal/bwledger"
	"bwcluster/internal/telemetry"
)

// benchRuntime builds and settles a 32-host runtime for the query
// benchmarks; the settle cost is paid once, outside the timed region.
// The gossip tick is 10x the test default so background gossip wakeups
// perturb the per-query measurement as little as possible.
func benchRuntime(b *testing.B) *Runtime {
	b.Helper()
	tree, _ := buildTree(b, 32, 0.2, 9)
	rt, err := New(tree, testConfig(), 10*testTick)
	if err != nil {
		b.Fatal(err)
	}
	rt.Start()
	b.Cleanup(rt.Stop)
	if err := rt.Settle(settleQuiet, settleMax); err != nil {
		b.Fatal(err)
	}
	return rt
}

// BenchmarkQueryTracingOff measures one routed query on a settled
// runtime with no trace context attached — the per-query cost the
// tracing layer adds when disabled is a nil span check at each hop and
// two header bytes on each lean frame, and this benchmark against its
// TracingOn sibling in `make bench-gate` is the evidence it stays
// under the 5% budget.
func BenchmarkQueryTracingOff(b *testing.B) {
	rt := benchRuntime(b)
	hosts := rt.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Query(hosts[i%len(hosts)], 4, 64, queryWait); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryTracingOn is the same routed query with a live trace
// context: every hop mints a span, reports a KindTrace event to the
// origin, and the origin reassembles the causal tree before returning.
// The delta against BenchmarkQueryTracingOff is the full cost of
// tracing a query.
func BenchmarkQueryTracingOn(b *testing.B) {
	rt := benchRuntime(b)
	hosts := rt.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		span := telemetry.StartSpan("query")
		if _, err := rt.QueryTraced(hosts[i%len(hosts)], 4, 64, queryWait, span); err != nil {
			b.Fatal(err)
		}
		span.Finish()
	}
}

// BenchmarkQueryLedgerOff measures one routed query with no bandwidth
// ledger attached — the disabled-path cost is a nil atomic load per
// delivered frame. Against its LedgerOn sibling in `make bench-gate`
// this is the evidence that per-link accounting stays within the 3%
// budget (cmd/bwc-benchgate).
func BenchmarkQueryLedgerOff(b *testing.B) {
	rt := benchRuntime(b)
	hosts := rt.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Query(hosts[i%len(hosts)], 4, 64, queryWait); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryLedgerOn is the same routed query with a live bandwidth
// ledger: every delivered frame takes the ledger's RLock, resolves its
// (link, kind) cell and adds its byte count. The delta against
// BenchmarkQueryLedgerOff is the full per-query cost of bandwidth
// accounting.
func BenchmarkQueryLedgerOn(b *testing.B) {
	rt := benchRuntime(b)
	rt.SetLedger(bwledger.New(bwledger.Config{}))
	hosts := rt.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Query(hosts[i%len(hosts)], 4, 64, queryWait); err != nil {
			b.Fatal(err)
		}
	}
}
