package runtime

import (
	"sync/atomic"

	"bwcluster/internal/bwledger"
)

// Bandwidth-ledger wiring. The runtime owns neither the ledger nor the
// transport's accounting sites; it connects the two (SetLedger forwards
// the ledger to whatever transport the runtime was built over) and
// drives the window clock: the health monitor closes a ledger window
// every ledgerWindowTicks logical ticks, so window boundaries live on
// the same injected clock as every other health signal — tests drive
// rollLedgerAt with synthetic tick values and never sleep, and a
// window's length in seconds is a pure function of the tick duration.

// ledgerWindowTicks is the window length in logical ticks. At the
// default serving tick (1ms) a window is ~50ms of traffic — short
// enough that a bandwidth violation surfaces while the burst that
// caused it is still in the flight ring, long enough that per-window
// rates are not dominated by single messages.
const ledgerWindowTicks = 50

// ledgerState is embedded in Runtime: the attached ledger, swapped
// atomically so the monitor and setters never race.
type ledgerState struct {
	ledger atomic.Pointer[bwledger.Ledger]
}

// SetLedger attaches a bandwidth ledger: the transport accounts every
// delivery into it, and the health monitor closes its windows on the
// logical tick clock. When the runtime's transport (or, for a fault
// injector, its inner transport) does not support a ledger the call
// only installs the window driver. A nil ledger detaches.
func (rt *Runtime) SetLedger(l *bwledger.Ledger) {
	rt.ledgerState.ledger.Store(l)
	if ls, ok := rt.tr.(interface{ SetLedger(*bwledger.Ledger) }); ok {
		ls.SetLedger(l)
	}
}

// Ledger returns the attached bandwidth ledger, nil before SetLedger.
// Kept: test seam: ledger tests read the attached ledger.
func (rt *Runtime) Ledger() *bwledger.Ledger { return rt.ledgerState.ledger.Load() }

// rollLedgerAt closes the ledger's open window when logical time now
// lands on a window boundary. Deterministic: a pure function of now,
// the window length, and the tick duration.
func (rt *Runtime) rollLedgerAt(now uint64) {
	if now == 0 || now%ledgerWindowTicks != 0 {
		return
	}
	l := rt.ledgerState.ledger.Load()
	if l == nil {
		return
	}
	l.Roll(ledgerWindowTicks * rt.tick.Seconds())
}
