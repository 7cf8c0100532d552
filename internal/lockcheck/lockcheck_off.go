//go:build !lockcheck

package lockcheck

import "sync"

// Enabled reports whether the dynamic lock-order assertion is compiled
// in; false in the default build.
// Kept: test seam: tests branch on the lockcheck build tag.
func Enabled() bool { return false }

// Mutex is a plain sync.Mutex in the default build. Embedding (rather
// than aliasing) keeps the type identical across both builds while the
// promoted methods still resolve to package sync, which is what both
// bwc-vet's concurrency check and its lockorder lock-class attribution
// key on.
type Mutex struct {
	sync.Mutex
}

// SetClass names the lock's class for the shadow order graph; a no-op
// in the default build.
func (m *Mutex) SetClass(string) {}
