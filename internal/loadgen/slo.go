package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// SLO declares the latency/error/cache budgets a run must meet. Zero
// fields are unchecked, except MaxErrorRate, which is a pointer so a
// committed baseline can declare zero tolerance explicitly.
type SLO struct {
	// MaxP50Ms/MaxP95Ms/MaxP99Ms bound the OK-latency percentiles.
	MaxP50Ms float64 `json:"maxP50Ms,omitempty"`
	MaxP95Ms float64 `json:"maxP95Ms,omitempty"`
	MaxP99Ms float64 `json:"maxP99Ms,omitempty"`
	// MaxErrorRate bounds unexpected outcomes / total requests. nil is
	// unchecked; a pointer to 0 means any unexpected failure violates.
	MaxErrorRate *float64 `json:"maxErrorRate,omitempty"`
	// MinCacheHitRate floors the cached=true fraction of OK replies — the
	// Zipf-popularity workloads exist to keep the caches hot, and a silent
	// cache regression shows up here first.
	MinCacheHitRate float64 `json:"minCacheHitRate,omitempty"`
	// MinGoodputRate floors OK replies per second of wall clock.
	MinGoodputRate float64 `json:"minGoodputRate,omitempty"`
	// MinOKFraction floors OK replies / total requests (a coarse guard
	// that complements MaxErrorRate when faults are injected).
	MinOKFraction float64 `json:"minOKFraction,omitempty"`
}

// Violation is one budget the run blew.
type Violation struct {
	Metric string  `json:"metric"`
	Actual float64 `json:"actual"`
	Budget float64 `json:"budget"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s = %g violates budget %g", v.Metric, v.Actual, v.Budget)
}

// Evaluate checks the report against the SLO and returns every violated
// budget (empty = the run passes).
func (s SLO) Evaluate(r *Report) []Violation {
	var out []Violation
	ceil := func(metric string, actual, budget float64) {
		if budget > 0 && actual > budget {
			out = append(out, Violation{Metric: metric, Actual: actual, Budget: budget})
		}
	}
	floor := func(metric string, actual, budget float64) {
		if budget > 0 && actual < budget {
			out = append(out, Violation{Metric: metric, Actual: actual, Budget: budget})
		}
	}
	ceil("latency.p50Ms", r.LatencyMs.P50, s.MaxP50Ms)
	ceil("latency.p95Ms", r.LatencyMs.P95, s.MaxP95Ms)
	ceil("latency.p99Ms", r.LatencyMs.P99, s.MaxP99Ms)
	if s.MaxErrorRate != nil && r.ErrorRate > *s.MaxErrorRate {
		out = append(out, Violation{Metric: "errorRate", Actual: r.ErrorRate, Budget: *s.MaxErrorRate})
	}
	floor("cacheHitRate", r.CacheHitRate, s.MinCacheHitRate)
	floor("goodputRate", r.GoodputRate, s.MinGoodputRate)
	if s.MinOKFraction > 0 && r.Requests > 0 {
		if frac := float64(r.OK) / float64(r.Requests); frac < s.MinOKFraction {
			out = append(out, Violation{Metric: "okFraction", Actual: frac, Budget: s.MinOKFraction})
		}
	}
	return out
}

// Baseline is the committed loadgen baseline file (BENCH_LOADGEN.json): a
// pinned workload Spec plus the SLOs it must meet, so CI replays exactly
// the committed mix and gates on the committed budgets. Corpus declares
// the instance corpus the Spec's CorpusSize indexes into.
type Baseline struct {
	Label    string       `json:"label,omitempty"`
	Corpus   []FamilySpec `json:"corpus"`
	Workload Spec         `json:"workload"`
	SLO      SLO          `json:"slo"`
}

// LoadBaseline reads and validates a Baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("loadgen: baseline: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("loadgen: baseline %s: %w", path, err)
	}
	if n := corpusCount(b.Corpus); n > 0 && b.Workload.CorpusSize == 0 {
		b.Workload.CorpusSize = n
	}
	if err := b.Workload.Validate(); err != nil {
		return nil, fmt.Errorf("loadgen: baseline %s: %w", path, err)
	}
	return &b, nil
}

// LoadSLO reads an SLO from path, accepting either a full Baseline file
// (its "slo" member is used) or a bare SLO object — so ad-hoc runs can
// gate on the committed baseline's budgets without replaying its workload.
func LoadSLO(path string) (*SLO, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("loadgen: slo: %w", err)
	}
	var probe struct {
		SLO *SLO `json:"slo"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("loadgen: slo %s: %w", path, err)
	}
	if probe.SLO != nil {
		return probe.SLO, nil
	}
	var s SLO
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("loadgen: slo %s: %w", path, err)
	}
	return &s, nil
}

// ReportFile is the on-disk run report. Its top-level keys are a strict
// superset of cmd/benchjson's trajectory file — label, goVersion, goos,
// goarch, cpu, timestamp, bench, benchtime, results — so the trajectory
// tooling (benchjson -compare) reads a loadgen report like any other
// trajectory point; the loadgen-specific payload rides alongside.
type ReportFile struct {
	Label      string             `json:"label,omitempty"`
	GoVersion  string             `json:"goVersion"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	Timestamp  string             `json:"timestamp"`
	Bench      string             `json:"bench"`
	BenchTime  string             `json:"benchtime"`
	Results    []TrajectoryResult `json:"results"`
	Workload   Spec               `json:"workload"`
	Loadgen    *Report            `json:"loadgen"`
	SLO        *SLO               `json:"slo,omitempty"`
	Violations []Violation        `json:"violations,omitempty"`
}

// NewReportFile assembles the on-disk report for a finished run.
// violations may be nil (no SLO was declared).
func NewReportFile(label string, spec Spec, rep *Report, slo *SLO, violations []Violation) *ReportFile {
	return &ReportFile{
		Label:      label,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Bench:      "loadgen",
		BenchTime:  fmt.Sprintf("%dx", spec.Requests),
		Results:    rep.TrajectoryResults(),
		Workload:   spec,
		Loadgen:    rep,
		SLO:        slo,
		Violations: violations,
	}
}

// Write marshals the report file to path ("" or "-" = stdout).
func (f *ReportFile) Write(path string) error {
	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}
