package sim

import (
	"fmt"
	"strings"
	"testing"

	"bwcluster/internal/bwledger"
)

// The renderer reproduces the per-experiment Printf tables it replaced,
// including the cases no committed series pins: the n_cut ablation's
// unpadded "central" header and the bandwidth series' "other" rows with
// "-" cells in numeric columns.
func TestRenderMatchesPrintfTables(t *testing.T) {
	ncut := &NCutAblationResult{Dataset: HP, Curves: []NCutCurve{
		{NCut: 5, Points: []TradeoffPoint{{K: 2, RR: map[Approach]float64{TreeDecentral: 0.5, TreeCentral: 0.9}}}},
		{NCut: 10, Points: []TradeoffPoint{{K: 2, RR: map[Approach]float64{TreeDecentral: 0.75, TreeCentral: 1}}}},
	}}
	want := "# n_cut ablation (HP): decentralized RR vs k per cutoff\n" +
		fmt.Sprintf("%-6s ncut=%-9d ncut=%-9d central\n", "k", 5, 10) +
		fmt.Sprintf("%-6d %-14.4f %-14.4f %-8.4f\n", 2, 0.5, 0.75, 1.0)
	checkRender(t, ncut, want)

	bw := &BandwidthResult{Dataset: HP, N: 4, K: 2, LedgerBytes: 300, LedgerMessages: 3, DeliveredDelta: 3, Phases: []BandwidthPhase{{
		Name: "gossip",
		Window: bwledger.Window{Seq: 1, OtherBytes: 100, OtherMessages: 1, Links: []bwledger.LinkWindow{
			{A: 0, B: 3, Bytes: 200, Messages: 2, BytesPerSec: 20, PredictedMbps: 42.5, Utilization: 0.001, Violation: true},
		}},
	}}}
	want = "# bandwidth series (HP, n=4, k=2): per-link delivered bytes per window, joined against predicted link bandwidth\n" +
		"# windows close at phase boundaries: gossip fan-in to the fixed point, then the fig-3 query workload\n" +
		"# ledger total: 300 bytes / 3 messages; delivered-counter delta: 3 (reconciled=true); violations: 0\n" +
		fmt.Sprintf("%-9s %-5s %-7s %-10s %-7s %-12s %-10s %-7s %-10s\n",
			"phase", "win", "link", "bytes", "msgs", "bytes/s", "pred.mbps", "util", "violation") +
		fmt.Sprintf("%-9s %-5d %-7s %-10d %-7d %-12.1f %-10.2f %-7.4f %-10v\n",
			"gossip", 1, "0-3", 200, 2, 20.0, 42.5, 0.001, true) +
		fmt.Sprintf("%-9s %-5d %-7s %-10d %-7d %-12s %-10s %-7s %-10s\n",
			"gossip", 1, "other", 100, 1, "-", "-", "-", "-")
	checkRender(t, bw, want)
}

func checkRender(t *testing.T, r interface{ Blocks() Series }, want string) {
	t.Helper()
	var b strings.Builder
	if err := r.Blocks().Render(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("rendered:\n%q\nwant:\n%q", b.String(), want)
	}
}
