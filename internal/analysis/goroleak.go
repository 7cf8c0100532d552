package analysis

// The goroleak check (DESIGN.md §8i): every `go` statement must have a
// provable exit path. The analyzer takes the spawned function (a literal
// or resolved callee), walks everything statically reachable from it
// through the shared call graph, and demands that every condition-less
// `for {}` loop in that set contains a way out: a `return`, a `break`
// targeting the loop, or — the preferred evidence — a select case or
// receive on a termination channel (one that is close()d somewhere in
// the program, named like done/stop/quit, or produced by a Done()
// accessor such as context.Context's). Loops with a condition are
// assumed to terminate (data-dependent bounds are beyond a static
// check), and a `go` statement whose target cannot be resolved at all —
// a stored function value — is reported, because an exit path that
// cannot be found cannot be reviewed. Suppress a deliberate
// process-lifetime goroutine with //bwcvet:allow goroleak <reason> on
// the go statement.

func runGoroLeak(p *Pass) {
	if !inScope("goroleak", p.Pkg) {
		return
	}
	prog := p.Prog()
	for _, fi := range prog.FuncsOf(p.Pkg) {
		for _, g := range fi.Gos {
			if len(g.Roots) == 0 {
				p.Reportf(g.Pos, "go statement spawns a function value the analyzer cannot resolve; spawn a named function or literal so its exit path is provable")
				continue
			}
			for _, reached := range transitiveSet(g.Roots) {
				for _, loop := range reached.UncondLoops {
					if loop.Exit {
						continue
					}
					detail := "no return, loop break, or done-channel case"
					if loop.DoneSignal {
						detail = "it receives a termination signal but never returns or breaks on it"
					}
					p.Reportf(g.Pos, "goroutine never provably exits: unconditional loop at %s (in %s) has %s; select on a done channel or context and return",
						posString(reached.Pkg, loop.Pos), reached.Name, detail)
				}
			}
		}
	}
}
