package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// This file is the suite's analysistest equivalent: fixture packages
// live under testdata/src/<name>/ (invisible to the go tool), every
// expected finding is declared in the fixture source as a trailing
//
//	// want "regexp"
//
// comment on the offending line, and RunFixture fails the test on any
// unmatched expectation or unexpected diagnostic, in either direction.

var wantRE = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// One fileset and source importer are shared across fixture runs in a
// test binary, so the stdlib (and any real module package a fixture
// pulls in, like repro/internal/scratch) is type-checked once, not once
// per test.
var (
	fixtureOnce sync.Once
	fixtureFset *token.FileSet
	fixtureImp  types.Importer
)

// RunFixture type-checks the fixture package in dir as import path
// asPath and runs analyzer over it, comparing diagnostics against the
// fixture's // want comments. Fixtures impersonate cone paths via
// asPath, so cone-membership logic runs unchanged.
func RunFixture(t *testing.T, analyzer *Analyzer, dir, asPath string) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureFset = token.NewFileSet()
		fixtureImp = importer.ForCompiler(fixtureFset, "source", nil)
	})
	fset := fixtureFset

	// Absolute paths keep the source importer's srcDir-relative module
	// resolution working regardless of the test's working directory.
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	wants := make(map[string]map[int][]*regexp.Regexp) // file -> line -> expectations
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		srcBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		f, err := parser.ParseFile(fset, path, srcBytes, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
		perLine := make(map[int][]*regexp.Regexp)
		for i, line := range strings.Split(string(srcBytes), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(unescapeWant(m[1]))
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", path, i+1, err)
				}
				perLine[i+1] = append(perLine[i+1], re)
			}
		}
		wants[path] = perLine
	}
	if len(files) == 0 {
		t.Fatalf("fixture dir %s has no Go files", dir)
	}

	info := newInfo()
	conf := types.Config{Importer: fixtureImp}
	pkg, err := conf.Check(asPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}

	var diags []Diagnostic
	pass := &Pass{
		Analyzer: analyzer,
		Path:     asPath,
		Fset:     fset,
		Files:    files,
		Pkg:      pkg,
		Info:     info,
		report:   func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := analyzer.Run(pass); err != nil {
		t.Fatalf("running %s on fixture %s: %v", analyzer.Name, dir, err)
	}

	// Every diagnostic must match a want on its line; every want must
	// be consumed by exactly one diagnostic.
	for _, d := range diags {
		perLine := wants[d.File]
		matched := false
		rest := perLine[d.Line][:0]
		for _, re := range perLine[d.Line] {
			if !matched && re.MatchString(d.Message) {
				matched = true
				continue
			}
			rest = append(rest, re)
		}
		if perLine != nil {
			perLine[d.Line] = rest
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	var leftover []string
	for file, perLine := range wants {
		for line, res := range perLine {
			for _, re := range res {
				leftover = append(leftover, fmt.Sprintf("%s:%d: no diagnostic matched want %q", file, line, re))
			}
		}
	}
	sort.Strings(leftover)
	for _, msg := range leftover {
		t.Errorf("%s", msg)
	}
}

// unescapeWant interprets \" and \\ inside a want pattern so fixtures
// can quote regexp metacharacters naturally.
func unescapeWant(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) && (s[i+1] == '"' || s[i+1] == '\\') {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
