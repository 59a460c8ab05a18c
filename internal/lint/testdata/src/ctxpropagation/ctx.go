// Package ctxpropagation is a bmatchvet fixture analyzed as a
// solver-cone import path.
package ctxpropagation

import "context"

func work()                       {}
func workCtx(ctx context.Context) { _ = ctx }

type solver struct{}

func (solver) solve()                       {}
func (solver) solveCtx(ctx context.Context) { _ = ctx }

// SolveCtx threads its context everywhere a callee can accept one.
func SolveCtx(ctx context.Context, s solver) {
	workCtx(ctx)
	s.solveCtx(ctx)
}

// DropsCtx has a ctx but drops it at both call sites.
func DropsCtx(ctx context.Context, s solver) {
	work()    // want "call workCtx and pass the context"
	s.solve() // want "call .*solveCtx and pass the context"
	_ = ctx
}

// FreshRootCtx manufactures new roots despite having a context.
func FreshRootCtx(ctx context.Context) {
	c := context.Background() // want "already has a context.Context"
	_ = c
	_ = ctx
}

// AnnotatedFreshRootCtx keeps a justified fresh root.
func AnnotatedFreshRootCtx(ctx context.Context) {
	//lint:context detached audit span must outlive the request on purpose
	c := context.Background()
	_ = c
	_ = ctx
}

// Solve is the old compat-wrapper shape: Background as a direct argument
// to the ...Ctx sibling is a finding like any other fresh root.
func Solve(s solver) { SolveCtx(context.Background(), s) } // want "context.Background\\(\\) in the solver cone"

// storedBackground manufactures a root outside any wrapper.
func storedBackground() context.Context {
	return context.Background() // want "context.Background\\(\\) in the solver cone"
}

func usesTODO() {
	c := context.TODO() // want "context.TODO"
	_ = c
}

// MisnamedCtx claims the Ctx contract without taking a context.
func MisnamedCtx(x int) int { return x } // want "takes no context.Context parameter"
