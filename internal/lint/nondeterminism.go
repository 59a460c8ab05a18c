package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// wallClockFuncs are the time-package functions that read the wall
// clock or scheduler and therefore cannot appear in the deterministic
// solver cone. Pure types and constants (time.Duration, time.Second)
// remain usable.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// NondeterminismAnalyzer bans the ambient sources of run-to-run
// variation from the solver cone: wall-clock reads, the global
// math/rand stream (repro/internal/rng is the seeded, replayable
// source), and raw `go` statements — concurrency must go through
// par.ParallelFor, whose deterministic merge discipline the whole
// bit-identity story rests on. A goroutine that provably cannot write
// shared state can be kept with:
//
//	//lint:parallel <why this goroutine cannot affect results>
//	go drainLogs()
//
// The pool entry points themselves are audited the same way: every
// par.ParallelFor / par.ParallelForBlocks call site in the cone must
// carry a //lint:parallel annotation stating why the partitioned work is
// order- and width-independent — the analyzer cannot prove the
// disjoint-writes argument, so it forces the author to record it where a
// reviewer will look for it.
var NondeterminismAnalyzer = &Analyzer{
	Name: "nondeterminism",
	Doc: "bans time.Now-style wall-clock reads, math/rand, and raw go statements " +
		"from the deterministic solver cone, and requires //lint:parallel audits " +
		"on worker-pool call sites",
	Run: runNondeterminism,
}

// parallelPkg is the package whose ParallelFor/ParallelForBlocks
// functions fan work out to the pool.
const parallelPkg = "repro/internal/par"

// parallelCallName resolves call to a worker-pool entry point and
// returns its qualified name, or "" when the call is something else.
func parallelCallName(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != parallelPkg {
		return ""
	}
	if name := fn.Name(); name == "ParallelFor" || name == "ParallelForBlocks" {
		return fn.Pkg().Name() + "." + name
	}
	return ""
}

func runNondeterminism(pass *Pass) error {
	if !InSolverCone(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import %s in the deterministic solver cone: use repro/internal/rng (seeded, replayable)", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				name := parallelCallName(pass.Info, n)
				if name == "" {
					return true
				}
				if _, ok := pass.annotated(n, "parallel"); ok {
					return true
				}
				pass.Reportf(n.Pos(),
					"%s call site in the deterministic solver cone: annotate "+
						"//lint:parallel <why the partitioned work is order- and width-independent>", name)
			case *ast.GoStmt:
				if _, ok := pass.annotated(n, "parallel"); ok {
					return true
				}
				pass.Reportf(n.Pos(),
					"go statement in the deterministic solver cone: use par.ParallelFor, "+
						"or annotate //lint:parallel <why this goroutine cannot affect results>")
			case *ast.SelectorExpr:
				obj, ok := pass.Info.Uses[n.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
					return true
				}
				if wallClockFuncs[obj.Name()] {
					pass.Reportf(n.Pos(),
						"time.%s in the deterministic solver cone: results must not depend on the wall clock",
						obj.Name())
				}
			}
			return true
		})
	}
	return nil
}
