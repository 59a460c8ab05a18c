// benchjson runs the repository's benchmarks with -benchmem and emits a
// machine-readable JSON trajectory point (name, ns/op, B/op, allocs/op per
// benchmark), so performance is tracked as committed data instead of
// anecdotes. It can also enforce pinned budgets: with -budgets, any
// benchmark over its allocs/op pin, over its ns/op pin, or over a pinned
// ratio to a sibling benchmark fails the run — CI uses
// this to make perf regressions in the solver hot loops a red build.
//
// Usage:
//
//	go run ./cmd/benchjson -out BENCH_PR8.json
//	go run ./cmd/benchjson -bench 'BenchmarkSequential|BenchmarkFullMPC' -benchtime 3x
//	go run ./cmd/benchjson -budgets BENCH_BUDGETS.json -out /dev/null
//	go run ./cmd/benchjson -short -compare BENCH_PR5.json
//
// A budget file pins allocs/op, ns/op and sibling ratios:
//
//	{
//	  "entries": [
//	    {"pattern": "^BenchmarkSequential/", "maxAllocs": 60, "maxNs": 4.1e6},
//	    {"pattern": ".../workers=4$", "maxRatioTo": ".../workers=1", "maxRatio": 1.3}
//	  ]
//	}
//
// A maxNs pin is an ns/op ceiling. Absolute times move with the host, so
// each is set well above the measured ns/op: it catches
// order-of-magnitude regressions, not noise. Ratio pins (a benchmark
// against a sibling measured in the same run) are machine-independent and
// get no slack beyond their own maxRatio.
//
// -compare diffs the run against an earlier trajectory point on stderr
// after the budgets are checked. It is informational only and never fails
// the run: a missing or unreadable file is a warning. -short forwards go
// test's -short flag so size-gated benchmarks keep CI smoke runs cheap.
// Budget entries whose benchmarks only exist in full runs carry
// "skipInShort": true, so -short enforces the smoke pins without
// tripping the matched-no-benchmark check on the size-gated ones.
//
// The workflow for the committed trajectory (see README "Benchmark
// trajectory"): each PR that claims a perf win records a BENCH_PR<n>.json
// produced by this tool, so the series of files *is* the perf history.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark measurement.
type Result struct {
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
}

// File is the emitted trajectory point.
type File struct {
	Label     string   `json:"label,omitempty"`
	GoVersion string   `json:"goVersion"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	CPU       string   `json:"cpu,omitempty"`
	Timestamp string   `json:"timestamp"`
	Bench     string   `json:"bench"`
	BenchTime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

// benchLine matches go test benchmark output with -benchmem, e.g.
// "BenchmarkSequential/d=16-8   3   1580776 ns/op   508536 B/op   2009 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.eE+]+) ns/op(?:\s+([0-9.eE+]+) B/op)?(?:\s+(\d+) allocs/op)?`)

// procSuffix is the "-N" GOMAXPROCS suffix go test appends to benchmark
// names on multi-core machines (and omits when GOMAXPROCS=1). It is
// stripped so trajectory points and BENCH_BUDGETS.json patterns are
// machine-independent — budgets anchored with $ would otherwise never
// match on a multi-core CI runner.
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	var (
		bench     = flag.String("bench", ".", "benchmark regex passed to go test -bench")
		benchtime = flag.String("benchtime", "1x", "passed to go test -benchtime")
		pkgs      = flag.String("pkgs", "./...", "space-separated packages to benchmark")
		out       = flag.String("out", "", "output JSON path (default stdout)")
		budgets   = flag.String("budgets", "", "JSON budget file; exceeding any budget fails the run")
		label     = flag.String("label", "", "free-form label recorded in the output (e.g. PR number)")
		timeout   = flag.Duration("timeout", 30*time.Minute, "go test timeout")
		compare   = flag.String("compare", "", "earlier trajectory JSON to diff against on stderr (informational)")
		short     = flag.Bool("short", false, "forward -short to go test (size-gated benchmarks shrink)")
	)
	flag.Parse()

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
		"-benchtime", *benchtime, "-timeout", timeout.String()}
	if *short {
		args = append(args, "-short")
	}
	args = append(args, strings.Fields(*pkgs)...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fatalf("go %s: %v", strings.Join(args, " "), err)
	}

	f := &File{
		Label:     *label,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Bench:     *bench,
		BenchTime: *benchtime,
	}
	pkg := ""
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			f.CPU = rest
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		r := Result{Pkg: pkg, Name: procSuffix.ReplaceAllString(m[1], "")}
		r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			bpo, _ := strconv.ParseFloat(m[4], 64)
			r.BytesPerOp = int64(bpo)
		}
		if m[5] != "" {
			r.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		f.Results = append(f.Results, r)
	}
	if err := sc.Err(); err != nil {
		fatalf("scanning bench output: %v", err)
	}
	if len(f.Results) == 0 {
		fatalf("no benchmark results matched %q in %s", *bench, *pkgs)
	}

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}

	if *budgets != "" {
		if violations := checkBudgets(*budgets, f.Results, *short); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "BUDGET EXCEEDED:", v)
			}
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "all budgets respected")
	}

	if *compare != "" {
		compareAgainst(*compare, f.Results)
	}
}

// BudgetEntry is one structured pin. Zero-valued limits are not checked.
type BudgetEntry struct {
	// Pattern selects the benchmarks this entry pins.
	Pattern string `json:"pattern"`
	// MaxAllocs is an absolute allocs/op ceiling (allocs are exact, no
	// tolerance applies).
	MaxAllocs int64 `json:"maxAllocs,omitempty"`
	// MaxNs is a ns/op ceiling.
	MaxNs float64 `json:"maxNs,omitempty"`
	// MaxRatioTo/MaxRatio pin this entry's benchmarks to at most MaxRatio
	// times the ns/op of the benchmark whose (suffix-stripped) name equals
	// MaxRatioTo in the same run — machine-independent, so no tolerance.
	MaxRatioTo string  `json:"maxRatioTo,omitempty"`
	MaxRatio   float64 `json:"maxRatio,omitempty"`
	// SkipInShort marks entries whose benchmarks are size-gated out of
	// -short runs (the CI smoke configuration): the entry is only enforced
	// in full runs, instead of tripping the matched-no-benchmark check.
	SkipInShort bool `json:"skipInShort,omitempty"`
}

// BudgetFile is the budget format; see the package comment.
type BudgetFile struct {
	Entries []BudgetEntry `json:"entries"`
}

// loadBudgets reads a budget file.
func loadBudgets(path string) *BudgetFile {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("budgets: %v", err)
	}
	var bf BudgetFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fatalf("budgets %s: %v", path, err)
	}
	if len(bf.Entries) == 0 {
		fatalf("budgets %s: no entries", path)
	}
	return &bf
}

// checkBudgets returns one violation string per benchmark over a matching
// pin. A budget pattern that matches no benchmark is itself a violation —
// a renamed benchmark must not silently retire its pin.
func checkBudgets(path string, results []Result, short bool) []string {
	bf := loadBudgets(path)
	var violations []string
	for _, ent := range bf.Entries {
		if short && ent.SkipInShort {
			continue
		}
		re, err := regexp.Compile(ent.Pattern)
		if err != nil {
			fatalf("budgets %s: bad regex %q: %v", path, ent.Pattern, err)
		}
		var ref *Result
		if ent.MaxRatioTo != "" {
			for i := range results {
				if results[i].Name == ent.MaxRatioTo {
					ref = &results[i]
					break
				}
			}
			if ref == nil {
				violations = append(violations,
					fmt.Sprintf("ratio reference %q missing from this run (pattern %q)", ent.MaxRatioTo, ent.Pattern))
				continue
			}
		}
		matched := false
		for _, r := range results {
			if !re.MatchString(r.Name) {
				continue
			}
			matched = true
			if ent.MaxAllocs > 0 && r.AllocsPerOp > ent.MaxAllocs {
				violations = append(violations,
					fmt.Sprintf("%s: %d allocs/op > budget %d (pattern %q)", r.Name, r.AllocsPerOp, ent.MaxAllocs, ent.Pattern))
			}
			if ent.MaxNs > 0 && r.NsPerOp > ent.MaxNs {
				violations = append(violations,
					fmt.Sprintf("%s: %.0f ns/op > budget %.0f (pattern %q)", r.Name, r.NsPerOp, ent.MaxNs, ent.Pattern))
			}
			if ref != nil && ent.MaxRatio > 0 && ref.NsPerOp > 0 {
				if ratio := r.NsPerOp / ref.NsPerOp; ratio > ent.MaxRatio {
					violations = append(violations,
						fmt.Sprintf("%s: %.2fx the ns/op of %s > max ratio %.2f (pattern %q)",
							r.Name, ratio, ref.Name, ent.MaxRatio, ent.Pattern))
				}
			}
		}
		if !matched {
			violations = append(violations,
				fmt.Sprintf("budget pattern %q matched no benchmark — update BENCH_BUDGETS.json for the rename", ent.Pattern))
		}
	}
	return violations
}

// compareAgainst prints an informational ns/op and allocs/op diff between
// this run and an earlier trajectory point. Machine variance makes raw ns
// deltas advisory, so the diff never fails the run — not even when the
// file is missing or unreadable, which only warns; it exists so a CI log
// or a local run shows the shape of the change at a glance.
func compareAgainst(path string, results []Result) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: warning: compare: %v\n", err)
		return
	}
	var old File
	if err := json.Unmarshal(data, &old); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: warning: compare %s: %v\n", path, err)
		return
	}
	oldByName := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		oldByName[r.Name] = r
	}
	fmt.Fprintf(os.Stderr, "comparison vs %s (label %q, %s) — informational, machine variance applies:\n",
		path, old.Label, old.Timestamp)
	matched := 0
	for _, r := range results {
		o, ok := oldByName[r.Name]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		matched++
		fmt.Fprintf(os.Stderr, "  %-60s %12.0f -> %12.0f ns/op (%+.1f%%), %d -> %d allocs/op\n",
			r.Name, o.NsPerOp, r.NsPerOp, 100*(r.NsPerOp-o.NsPerOp)/o.NsPerOp, o.AllocsPerOp, r.AllocsPerOp)
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "  (no benchmark names in common)")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
