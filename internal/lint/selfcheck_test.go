package lint

import (
	"go/types"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The module is loaded once per test binary: a full Load type-checks
// every package and the stdlib they import, and the self-checks below
// all read the same program.
var (
	moduleOnce sync.Once
	moduleProg *Program
	moduleErr  error
)

func loadModule(t *testing.T) *Program {
	t.Helper()
	moduleOnce.Do(func() { moduleProg, moduleErr = Load("../..", "./...") })
	if moduleErr != nil {
		t.Fatalf("loading module: %v", moduleErr)
	}
	return moduleProg
}

// TestTreeIsClean is the tier-1 mirror of CI's bmatchvet step: the
// whole repository must pass every analyzer. A finding here means a
// determinism, hygiene, or lifetime invariant regressed — fix the code
// or justify an annotation, exactly as the diagnostic says.
func TestTreeIsClean(t *testing.T) {
	diags, err := RunAnalyzers(loadModule(t), Analyzers())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestSolverConeIsAnalyzed guards against the self-check silently
// going no-op: the load must actually cover every solver-cone package
// and every transport-cone root, or the clean result above is
// meaningless.
func TestSolverConeIsAnalyzed(t *testing.T) {
	prog := loadModule(t)
	loaded := make(map[string]bool, len(prog.Pkgs))
	for _, p := range prog.Pkgs {
		loaded[p.Path] = true
	}
	for _, path := range solverCone {
		if !loaded[path] {
			t.Errorf("solver-cone package %s was not loaded", path)
		}
	}
	for _, root := range TransportConeRoots() {
		if !loaded[root] {
			t.Errorf("transport-cone root %s was not loaded", root)
		}
		if !prog.InTransportCone(root) {
			t.Errorf("transport-cone root %s not marked as cone member", root)
		}
	}
}

// testOnlyAllowed are the exported functions and methods under
// internal/ that no production code calls but that stay exported, keyed
// by types.Func.FullName, each with the reason it stays.
var testOnlyAllowed = map[string]string{
	"(repro/internal/frac.View[V]).VLoose":                  "BenchmarkKernelScaling reads it, and BENCH_BUDGETS.json pins that benchmark",
	"repro/internal/lint.BannedTransportImports":            "engine's TestTransportFree checks the banned imports at run time",
	"(*repro/internal/mpc/mpctransport.Worker).ActiveConns": "the transport tests check for leaked connections with it",
	"repro/internal/graph.Cycle":                            "a fixture in the tests of four or more packages",
	"repro/internal/graph.Path":                             "a fixture in the tests of four or more packages",
	"(*repro/internal/scratch.Arena).F64":                   "a zeroed Grab that the scratchlifetime analyzer and its fixtures name",
	"(*repro/internal/scratch.Arena).F32":                   "a zeroed Grab that the scratchlifetime analyzer and its fixtures name",
	"(*repro/internal/scratch.Arena).I64":                   "a zeroed Grab that the scratchlifetime analyzer and its fixtures name",
	"repro/internal/graphio.Write":                          "the text-format encoder: graphio's round-trip and benchmark tests and httpapi's text-body test encode with it",
	"(*repro/internal/rng.RNG).Perm":                        "stream's arrival-order test draws its edge orders with it",
}

// TestNoTestOnlyExports keeps production files to production code: an
// exported function or method under internal/ that no non-test code of
// the module or of perfbench uses is a test oracle or a second way of
// doing something, and belongs in a _test.go file or nowhere. Each
// package is type-checked on its own, so object identity does not hold
// across packages and uses are matched by full name. A method also
// counts as used when its type satisfies an interface that declares it,
// in the program or in a package it imports, since a dynamic call
// through that interface leaves no static use.
func TestNoTestOnlyExports(t *testing.T) {
	mod := loadModule(t)
	bench, err := Load("../../perfbench", ".")
	if err != nil {
		t.Fatalf("loading perfbench: %v", err)
	}
	used := make(map[string]bool)
	// ifaces indexes by method name every interface the program can see:
	// those its packages and their imports declare, and error.
	ifaces := map[string][]*types.Interface{
		"Error": {types.Universe.Lookup("error").Type().Underlying().(*types.Interface)},
	}
	seen := make(map[*types.Package]bool)
	var addIfaces func(p *types.Package)
	addIfaces = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue // Implements needs an instantiated interface
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
				}
			}
		}
		for _, imp := range p.Imports() {
			addIfaces(imp)
		}
	}
	for _, prog := range []*Program{mod, bench} {
		for _, p := range prog.Pkgs {
			for _, obj := range p.Info.Uses {
				if fn, ok := obj.(*types.Func); ok {
					used[fn.Origin().FullName()] = true
				}
			}
			addIfaces(p.Types)
		}
	}
	// implementsIface reports whether m's receiver type satisfies an
	// interface that declares m, so that calls through it can reach m.
	implementsIface := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range ifaces[m.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	var testOnly []string
	check := func(fn *types.Func) {
		if !fn.Exported() || used[fn.FullName()] {
			return
		}
		if fn.Type().(*types.Signature).Recv() != nil && implementsIface(fn) {
			return
		}
		testOnly = append(testOnly, fn.FullName())
	}
	for _, p := range mod.Pkgs {
		if !strings.HasPrefix(p.Path, "repro/internal/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				check(obj)
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						check(named.Method(i))
					}
				}
			}
		}
	}
	sort.Strings(testOnly)
	for _, name := range testOnly {
		if _, ok := testOnlyAllowed[name]; !ok {
			t.Errorf("%s is exported but only tests use it: move it into a _test.go file, delete it, or allow it here with a reason", name)
		}
	}
	// An entry that production now uses, or that no longer exists, would
	// silently excuse a future test-only function of the same name.
	var stale []string
	for name := range testOnlyAllowed {
		if !slices.Contains(testOnly, name) {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("allowlist entry %s is not a test-only export: remove it", name)
	}
	t.Logf("%d test-only exports under internal/, %d of them allowed", len(testOnly), len(testOnlyAllowed)-len(stale))
}
