package analysis

// The lockorder check (DESIGN.md §8i): interprocedural lock-acquisition
// ordering over the concurrent packages. It derives a static lock graph
// from the shared program view — an edge A → B for every site that
// acquires lock class B while A is held, directly or through any chain
// of resolved calls — and reports two classes of hazard:
//
//   - acquisition cycles: a strongly connected component in the lock
//     graph means two code paths can take the same locks in opposite
//     orders, the classic ABBA deadlock;
//   - blocking while locked: a channel send/receive, default-less
//     select, net/io call or Wait reachable while any lock is held can
//     stall every other goroutine contending for that lock — and
//     deadlock outright if the unblocking party needs it.
//
// The analysis over-approximates (a branch-local acquisition is treated
// as ordered with everything after it in the function; interface calls
// fan out to every implementation) and under-approximates (calls through
// stored function values are invisible), per DESIGN.md §8i; findings are
// suppressed with //bwcvet:allow lockorder <reason> at the reported site.

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// lockEdge is one observed ordering: `to` acquired while `from` held.
type lockEdge struct {
	from, to string
	pkg      *Package
	pos      token.Pos
	witness  string // call chain for transitive acquisitions, "" for direct
}

// progFinding is a program-level finding attributed to the package that
// owns its position, so each Pass reports (and suppresses) only its own.
type progFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

// lockGraph is the run-shared result of the lock-order analysis.
type lockGraph struct {
	findings []progFinding
}

func runLockOrder(p *Pass) {
	if !inScope("lockorder", p.Pkg) {
		return
	}
	prog := p.Prog()
	if prog.lockGraph == nil {
		prog.lockGraph = buildLockGraph(prog, p.Cfg)
	}
	for _, f := range prog.lockGraph.findings {
		if f.pkg == p.Pkg {
			p.Reportf(f.pos, "%s", f.msg)
		}
	}
}

// buildLockGraph computes the whole-program lock-order findings once per
// run; each package's pass then reports its own slice of them.
func buildLockGraph(prog *Program, cfg *Config) *lockGraph {
	g := &lockGraph{}
	var scoped []*FuncInfo
	for _, pkg := range prog.Pkgs {
		if !inScope("lockorder", pkg) {
			continue
		}
		scoped = append(scoped, prog.ByPkg[pkg]...)
	}

	// Collect ordering edges: direct nested acquisitions, and held-lock
	// call sites whose callees transitively acquire.
	var edges []lockEdge
	for _, fi := range scoped {
		for _, a := range fi.Acquires {
			for _, h := range a.Held {
				edges = append(edges, lockEdge{from: h.Class, to: a.Class, pkg: fi.Pkg, pos: a.Pos})
			}
		}
		for _, c := range fi.Calls {
			if len(c.Held) == 0 {
				continue
			}
			for _, callee := range c.Callees {
				for class, chain := range callee.TransAcquires {
					for _, h := range c.Held {
						edges = append(edges, lockEdge{from: h.Class, to: class, pkg: fi.Pkg, pos: c.Pos, witness: chain})
					}
				}
			}
		}
	}

	// Re-acquiring a class already held is a self-deadlock hazard on its
	// own (sync mutexes are not reentrant), reported without needing a
	// cycle partner.
	firstEdge := make(map[[2]string]lockEdge, len(edges))
	for _, e := range edges {
		if e.from == e.to {
			msg := fmt.Sprintf("acquires %s while %s is already held (sync locks are not reentrant)", e.to, e.from)
			if e.witness != "" {
				msg += " via " + e.witness
			}
			g.findings = append(g.findings, progFinding{pkg: e.pkg, pos: e.pos, msg: msg})
			continue
		}
		key := [2]string{e.from, e.to}
		if old, ok := firstEdge[key]; !ok || e.pos < old.pos {
			firstEdge[key] = e
		}
	}

	// Cycle detection: an edge whose endpoints share a multi-node
	// strongly connected component is part of an ABBA inversion. (Each
	// node alone can't cycle — self-edges were peeled off above.)
	sccOf, sccMembers := stronglyConnected(firstEdge)
	var cycleEdges []lockEdge
	for key, e := range firstEdge {
		if id := sccOf[key[0]]; id == sccOf[key[1]] && len(sccMembers[id]) > 1 {
			cycleEdges = append(cycleEdges, e)
		}
	}
	sort.Slice(cycleEdges, func(i, j int) bool { return cycleEdges[i].pos < cycleEdges[j].pos })
	for _, e := range cycleEdges {
		classes := append([]string(nil), sccMembers[sccOf[e.from]]...)
		sort.Strings(classes)
		msg := fmt.Sprintf("lock-acquisition cycle among {%s}: acquiring %s while holding %s inverts the order taken elsewhere", strings.Join(classes, ", "), e.to, e.from)
		if e.witness != "" {
			msg += " (via " + e.witness + ")"
		}
		g.findings = append(g.findings, progFinding{pkg: e.pkg, pos: e.pos, msg: msg})
	}

	// Blocking while locked: direct block sites with a non-empty held
	// set, and held-lock calls into anything that may transitively block.
	for _, fi := range scoped {
		for _, b := range fi.Blocks {
			if len(b.Held) == 0 {
				continue
			}
			g.findings = append(g.findings, progFinding{
				pkg: fi.Pkg, pos: b.Pos,
				msg: fmt.Sprintf("potentially blocking %s while holding %s; release the lock first or make the operation non-blocking", b.Kind, strings.Join(sortedClasses(b.Held), ", ")),
			})
		}
		for _, c := range fi.Calls {
			if len(c.Held) == 0 {
				continue
			}
			for _, callee := range c.Callees {
				if callee.TransBlock == "" {
					continue
				}
				g.findings = append(g.findings, progFinding{
					pkg: fi.Pkg, pos: c.Pos,
					msg: fmt.Sprintf("call to %s may block (%s) while holding %s", c.Name, callee.TransBlock, strings.Join(sortedClasses(c.Held), ", ")),
				})
				break // one report per call site is enough
			}
		}
	}
	sort.Slice(g.findings, func(i, j int) bool { return g.findings[i].pos < g.findings[j].pos })
	return g
}

// stronglyConnected computes SCCs of the lock-class graph (Tarjan,
// iteration order made deterministic by sorting) and returns each node's
// component id plus the members of each component.
func stronglyConnected(edges map[[2]string]lockEdge) (map[string]int, map[int][]string) {
	adj := make(map[string][]string)
	nodeSet := make(map[string]bool)
	for key := range edges {
		adj[key[0]] = append(adj[key[0]], key[1])
		nodeSet[key[0]], nodeSet[key[1]] = true, true
	}
	var nodes []string
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, tos := range adj {
		sort.Strings(tos)
	}

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	sccOf := make(map[string]int)
	sccMembers := make(map[int][]string)
	var stack []string
	next, nextSCC := 0, 0

	var strong func(v string)
	strong = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			id := nextSCC
			nextSCC++
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				sccOf[w] = id
				sccMembers[id] = append(sccMembers[id], w)
				if w == v {
					break
				}
			}
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
	return sccOf, sccMembers
}
