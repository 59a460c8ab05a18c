package bmatch_test

import (
	"context"
	"fmt"

	bmatch "repro"
)

// The unified API: one Request, one call, every algorithm. The weighted
// greedy trap (3-4-3) solved to optimality with the (1+ε) algorithm, and
// its certificate-carrying Θ(1) counterpart — both through Solve.
func ExampleSolve() {
	g, err := bmatch.NewGraph(4, []bmatch.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 3},
	})
	if err != nil {
		panic(err)
	}
	b := bmatch.UniformBudgets(4, 1)
	rep, err := bmatch.Solve(context.Background(), g, b,
		bmatch.Request{Algo: bmatch.AlgoMaxWeight, Seed: 1, Eps: 0.2})
	if err != nil {
		panic(err)
	}
	fmt.Println("weight:", rep.Weight)

	// The greedy baseline through the same contract.
	grep, err := bmatch.Solve(context.Background(), g, b,
		bmatch.Request{Algo: bmatch.AlgoGreedy})
	if err != nil {
		panic(err)
	}
	fmt.Println("greedy weight:", grep.Weight)
	// Output:
	// weight: 6
	// greedy weight: 4
}

// A path of three edges with unit budgets: the maximum matching
// (AlgoMax, Theorem 4.1) takes the two outer edges.
func ExampleSolve_max() {
	g, err := bmatch.NewGraph(4, []bmatch.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
	})
	if err != nil {
		panic(err)
	}
	rep, err := bmatch.Solve(context.Background(), g, bmatch.UniformBudgets(4, 1),
		bmatch.Request{Algo: bmatch.AlgoMax, Seed: 1, Eps: 0.25})
	if err != nil {
		panic(err)
	}
	fmt.Println("size:", rep.Size)
	// Output:
	// size: 2
}

// The classic weighted greedy trap (3-4-3): the maximum-weight solve
// (AlgoMaxWeight, Theorem 5.1) takes the outer edges for weight 6.
func ExampleSolve_maxWeight() {
	g, err := bmatch.NewGraph(4, []bmatch.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 3},
	})
	if err != nil {
		panic(err)
	}
	rep, err := bmatch.Solve(context.Background(), g, bmatch.UniformBudgets(4, 1),
		bmatch.Request{Algo: bmatch.AlgoMaxWeight, Seed: 1, Eps: 0.2})
	if err != nil {
		panic(err)
	}
	fmt.Println("weight:", rep.Weight)
	// Output:
	// weight: 6
}

// A triangle with budget 2 everywhere admits all three edges; the Θ(1)
// solve (AlgoApprox, Theorem 3.1) certifies |M| against its dual bound.
func ExampleSolve_approx() {
	g, err := bmatch.NewGraph(3, []bmatch.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
	})
	if err != nil {
		panic(err)
	}
	rep, err := bmatch.Solve(context.Background(), g, bmatch.UniformBudgets(3, 2),
		bmatch.Request{Algo: bmatch.AlgoApprox, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("size:", rep.Size, "upper bound holds:", float64(rep.Size) <= rep.Stats.DualBound)
	// Output:
	// size: 3 upper bound holds: true
}

// Budgets bound matched degrees per vertex: a star's hub with budget 2
// admits exactly two of its edges.
func ExampleUniformBudgets() {
	g, err := bmatch.NewGraph(4, []bmatch.Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 0, V: 3, W: 1},
	})
	if err != nil {
		panic(err)
	}
	b := bmatch.UniformBudgets(4, 1)
	b[0] = 2
	rep, err := bmatch.Solve(context.Background(), g, b,
		bmatch.Request{Algo: bmatch.AlgoMax, Seed: 1, Eps: 0.5})
	if err != nil {
		panic(err)
	}
	fmt.Println("hub degree:", rep.M.MatchedDeg(0))
	// Output:
	// hub degree: 2
}
