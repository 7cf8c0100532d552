package transport

import (
	"testing"
	"time"

	"bwcluster/internal/bwledger"
)

// The channel transport must account every delivered message into an
// attached ledger — same sites as the delivered counter, WireSize bytes
// — and the cumulative ledger totals must reconcile with the delta of
// the process-wide delivered counter around the run.
func TestChanLedgerRecordsAndReconciles(t *testing.T) {
	tr := NewChan(8)
	defer tr.Close()
	l := bwledger.New(bwledger.Config{})
	tr.SetLedger(l)
	recv, err := tr.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	before := DeliveredTotal()

	msgs := []Message{
		{Kind: KindNodeInfo, From: 2, To: 1, Nodes: []int{3, 4}},
		{Kind: KindQuery, From: 3, To: 1, Query: &Query{ID: 1, Origin: 3, Prev: -1, Path: []int{3}}},
	}
	var wantBytes int64
	for _, m := range msgs {
		wantBytes += int64(m.WireSize())
		if err := tr.Send(m); err != nil {
			t.Fatal(err)
		}
		recvOne(t, recv, time.Second)
	}
	// TrySend against a full-enough inbox still delivers here (cap 8).
	extra := Message{Kind: KindCRT, From: 2, To: 1, CRT: []int{9}}
	wantBytes += int64(extra.WireSize())
	if err := tr.TrySend(extra); err != nil {
		t.Fatal(err)
	}
	recvOne(t, recv, time.Second)

	if got := l.TotalMessages(); got != 3 {
		t.Fatalf("ledger messages = %d, want 3", got)
	}
	if got := l.TotalBytes(); got != wantBytes {
		t.Fatalf("ledger bytes = %d, want %d", got, wantBytes)
	}
	if delta := DeliveredTotal() - before; int64(delta) != l.TotalMessages() {
		t.Fatalf("delivered counter delta %d != ledger messages %d", delta, l.TotalMessages())
	}
	w := l.Roll(1)
	if len(w.Links) != 2 {
		t.Fatalf("links = %+v, want 2 (1-2 and 1-3)", w.Links)
	}
}

// FaultTransport forwards SetLedger to the wrapped transport, which
// records at actual delivery: dropped messages never hit the ledger and
// duplicated messages count twice.
func TestFaultLedgerCountsDeliveriesOnly(t *testing.T) {
	ft, err := NewFault(NewChan(0), FaultConfig{Seed: 7, Drop: 0.4, Duplicate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()
	l := bwledger.New(bwledger.Config{})
	ft.SetLedger(l)
	recv, err := ft.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	want := int64(0)
	for i := 0; i < n; i++ {
		d := ft.DecisionAt(i)
		if !d.Drop {
			want++
			if d.Duplicate {
				want++
			}
		}
	}
	for i := 0; i < n; i++ {
		if err := ft.Send(Message{Kind: KindNodeInfo, From: 2, To: 1, Nodes: []int{i}}); err != nil {
			t.Fatal(err)
		}
	}
	delivered := 0
drain:
	for {
		select {
		case <-recv:
			delivered++
		default:
			break drain
		}
	}
	if int64(delivered) != want {
		t.Fatalf("delivered %d, want %d", delivered, want)
	}
	if got := l.TotalMessages(); got != want {
		t.Fatalf("ledger messages = %d, want %d (deliveries, not sends)", got, want)
	}
}

// TCP accounts exact frame bytes on both ends: the sender's ledger on
// write, the receiver's ledger on delivery, and both agree because the
// frame length is the same bytes on the wire. A local short-circuit
// records once with the WireSize estimate.
func TestTCPLedgerBothSides(t *testing.T) {
	a, err := NewTCP(TCPConfig{Listen: "127.0.0.1:0", JitterSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(TCPConfig{Listen: "127.0.0.1:0", JitterSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	la, lb := bwledger.New(bwledger.Config{}), bwledger.New(bwledger.Config{})
	a.SetLedger(la)
	b.SetLedger(lb)
	recv1, err := a.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	recv2, err := b.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	a.AddRoute(2, b.Addr())

	m := Message{Kind: KindQuery, From: 1, To: 2, Query: &Query{ID: 7, Origin: 1, K: 3, ClassIdx: 2, ClassL: 4, Prev: -1, Hops: 1, Path: []int{1}}}
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	recvOne(t, recv2, 5*time.Second)
	// Both sides record asynchronously: the sender's writeLoop after the
	// write, the receiver after delivering to the inbox.
	deadline := time.After(5 * time.Second)
	for la.TotalMessages() < 1 || lb.TotalMessages() < 1 {
		select {
		case <-deadline:
			t.Fatalf("ledgers never recorded the frame: sender %d, receiver %d messages",
				la.TotalMessages(), lb.TotalMessages())
		case <-time.After(time.Millisecond):
		}
	}
	if la.TotalBytes() != lb.TotalBytes() {
		t.Fatalf("sender recorded %d bytes, receiver %d — frame lengths must agree",
			la.TotalBytes(), lb.TotalBytes())
	}
	if la.TotalBytes() == 0 {
		t.Fatal("no bytes recorded")
	}

	// Local short-circuit on a: exactly one more record, WireSize bytes.
	local := Message{Kind: KindCRT, From: 2, To: 1, CRT: []int{5}}
	beforeBytes := la.TotalBytes()
	if err := a.Send(local); err != nil {
		t.Fatal(err)
	}
	recvOne(t, recv1, time.Second)
	if got := la.TotalBytes() - beforeBytes; got != int64(local.WireSize()) {
		t.Fatalf("short-circuit recorded %d bytes, want WireSize %d", got, local.WireSize())
	}
	if lb.TotalMessages() != 1 {
		t.Fatalf("receiver ledger moved on a's local delivery: %d messages", lb.TotalMessages())
	}
}
