//go:build lockcheck

package lockcheck

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
)

// Enabled reports whether the dynamic lock-order assertion is compiled
// in; true under the lockcheck build tag.
// Kept: test seam: tests branch on the lockcheck build tag.
func Enabled() bool { return true }

// Mutex shadows sync.Mutex with the lock-order assertion described in
// the package comment. Lock and Unlock must be paired on the same
// goroutine (the shadow held-stack is per-goroutine; the runtime's
// locks all follow that discipline already).
type Mutex struct {
	inner sync.Mutex
	class string // set by SetClass, else derived from the first Lock site
}

// SetClass names the lock's class in the shadow order graph. Call it
// before the mutex is shared (typically in the owner's constructor).
func (m *Mutex) SetClass(c string) { m.class = c }

// heldLock is one acquisition on a goroutine's shadow stack.
type heldLock struct {
	class string
	m     *Mutex
}

// shadow is the process-wide order graph: which lock classes each live
// goroutine holds, and the first witness site of every (held → acquired)
// edge ever taken.
var shadow = struct {
	mu    sync.Mutex
	held  map[uint64][]heldLock
	order map[string]map[string]string // from → to → first witness site
}{
	held:  make(map[uint64][]heldLock),
	order: make(map[string]map[string]string),
}

// Lock acquires the mutex, panicking if this acquisition inverts the
// order any goroutine has ever taken these two lock classes in, or if
// this goroutine already holds this very mutex.
func (m *Mutex) Lock() {
	site := callSite()
	id := goid()

	shadow.mu.Lock()
	if m.class == "" {
		m.class = "anon@" + site
	}
	class := m.class
	for _, h := range shadow.held[id] {
		if h.m == m {
			shadow.mu.Unlock()
			panic(fmt.Sprintf("lockcheck: %s reacquired at %s while already held by this goroutine (sync locks are not reentrant)", class, site))
		}
		if h.class == class {
			// Sibling instance of the same class: instance order within
			// one class is below the graph's resolution.
			continue
		}
		if w := edgeWitness(class, h.class); w != "" {
			shadow.mu.Unlock()
			panic(fmt.Sprintf("lockcheck: lock-order inversion: %s acquired while holding %s at %s, but the opposite order was taken at %s", class, h.class, site, w))
		}
		if edgeWitness(h.class, class) == "" {
			setEdge(h.class, class, site)
		}
	}
	shadow.mu.Unlock()

	m.inner.Lock()

	shadow.mu.Lock()
	shadow.held[id] = append(shadow.held[id], heldLock{class: class, m: m})
	shadow.mu.Unlock()
}

// Unlock releases the mutex and pops it from the goroutine's shadow
// stack.
func (m *Mutex) Unlock() {
	id := goid()
	shadow.mu.Lock()
	stack := shadow.held[id]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].m == m {
			shadow.held[id] = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	if len(shadow.held[id]) == 0 {
		delete(shadow.held, id)
	}
	shadow.mu.Unlock()
	m.inner.Unlock()
}

// edgeWitness returns the recorded first witness site of from → to, or
// "" if that edge has never been taken. Caller holds shadow.mu.
func edgeWitness(from, to string) string {
	return shadow.order[from][to]
}

// setEdge records the first witness of from → to. Caller holds
// shadow.mu.
func setEdge(from, to, site string) {
	m := shadow.order[from]
	if m == nil {
		m = make(map[string]string)
		shadow.order[from] = m
	}
	m[to] = site
}

// callSite renders the Lock call's file:line for witness messages.
func callSite() string {
	_, file, line, ok := runtime.Caller(2)
	if !ok {
		return "unknown"
	}
	return fmt.Sprintf("%s:%d", file, line)
}

// goid parses the current goroutine's id from its stack header
// ("goroutine N [running]:"). Slow, which is fine: the whole point of
// the lockcheck build is to trade speed for the assertion.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		if id, err := strconv.ParseUint(string(s[:i]), 10, 64); err == nil {
			return id
		}
	}
	return 0
}
