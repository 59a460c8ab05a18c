// Command perfbench is the repository's benchmark. It runs one workload
// against the b-matching library or the bmatchd daemon, checks every output,
// and prints the workload's metrics, the last stdout line being one JSON
// object. See README.md for the workloads, the metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported figure with the number of samples behind it.
type metric struct {
	value   float64
	unit    string
	samples int
}

// endToEnd and perLayer are the metric names and units BENCHMARK.json
// declares; every run prints all of one list.
var (
	endToEnd = [][2]string{
		{"setup_s", "s"},
		{"solve_s.greedy", "s"}, {"solve_s.approx", "s"}, {"solve_s.frac", "s"},
		{"solve_s.max", "s"}, {"solve_s.maxw", "s"},
		{"quality.approx", "ratio"}, {"quality.max", "ratio"}, {"quality.maxw", "ratio"},
		{"ok_share", "ratio"}, {"cpu_ms_per_req", "ms"}, {"peak_rss_mb", "MB"},
	}
	perLayer = [][2]string{
		{"baseline.greedy_s", "s"}, {"graph.sort_s", "s"}, {"frac.fullmpc_s", "s"},
		{"frac.certify_s", "s"}, {"round.s", "s"}, {"augment.s", "s"}, {"weighted.s", "s"},
		{"matching.validate_s", "s"},
		{"alloc_mb.greedy", "MB"}, {"alloc_mb.approx", "MB"}, {"alloc_mb.frac", "MB"},
		{"alloc_mb.max", "MB"}, {"alloc_mb.maxw", "MB"},
		{"mallocs.greedy", "count"}, {"mallocs.approx", "count"}, {"mallocs.frac", "count"},
		{"mallocs.max", "count"}, {"mallocs.maxw", "count"},
		{"gc_count.greedy", "count"}, {"gc_count.approx", "count"}, {"gc_count.frac", "count"},
		{"gc_count.max", "count"}, {"gc_count.maxw", "count"},
		{"frac.iterations", "count"}, {"mpc.rounds", "count"}, {"mpc.traffic_words", "count"},
		{"augment.instances", "count"}, {"augment.sweeps", "count"},
		{"weighted.rounds", "count"}, {"weighted.instances", "count"},
		{"graphio.decode_ms", "ms"}, {"engine.instance_ms", "ms"}, {"engine.queue_wait_ms", "ms"},
		{"engine.solve_ms", "ms"}, {"httpapi.encode_ms", "ms"}, {"httpapi.reply_kb", "KiB"},
		{"engine.instance_hit_share", "ratio"}, {"engine.result_hit_share", "ratio"},
		{"engine.batch_mean", "count"}, {"unexplained_ms", "ms"},
		{"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
		{"gen.late_ms_p99", "ms"}, {"host.steal_share", "ratio"}, {"trace.overhead_ratio", "ratio"},
	}
)

// result is the outcome of one run.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	errors            []string
}

func main() {
	workload := flag.String("workload", "", "solve, serve-cold or serve-warm")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the timed part of the run")
	trace := flag.Int("trace", 0, "1 for the traced run, which prints the per-layer metrics")
	bmatchd := flag.String("bmatchd", "", "path of the bmatchd binary (serving workloads)")
	out := flag.String("out", ".", "directory for the traced run's spans")
	role := flag.String("role", "", "internal: gen runs the load generator process")
	addr := flag.String("addr", "", "internal: daemon address, for the generator")
	daemonPid := flag.Int("daemon-pid", 0, "internal: daemon pid, for the generator")
	calCPU := flag.Int("cal-cpu", 0, "internal: the daemon's CPU, where the generator calibrates")
	flag.Parse()
	window := time.Duration(*seconds) * time.Second

	if *role == "gen" {
		if err := runGen(*workload, *seed, window, *addr, *daemonPid, *calCPU); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench gen:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	res, err := run(ctx, *workload, *seed, window, *trace == 1, *bmatchd, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !report(res, *trace == 1) {
		os.Exit(1)
	}
}

func run(ctx context.Context, workload string, seed int64, window time.Duration, traced bool, bmatchd, out string) (*result, error) {
	res := &result{metrics: map[string]metric{}}
	switch workload {
	case "solve":
		// The process under test: solves run here, at GOMAXPROCS=1.
		runtime.GOMAXPROCS(1)
		if traced {
			rec := newRecorder()
			m, n, err := runSolveTraced(ctx, seed, window, rec)
			if err != nil {
				return nil, err
			}
			res.metrics, res.attempted = m, n
			return res, rec.write(filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed)))
		}
		r, err := runSolve(ctx, seed, window)
		if err != nil {
			return nil, err
		}
		res.metrics, res.attempted = r.metrics(), r.solves
	case "serve-cold", "serve-warm":
		if bmatchd == "" {
			return nil, fmt.Errorf("the serving workloads need -bmatchd")
		}
		setups := setupRepeats
		if traced {
			setups = 1
		}
		r, err := runServe(ctx, bmatchd, workload, seed, window, setups)
		if err != nil {
			return nil, err
		}
		g := r.gen
		res.attempted, res.failed, res.errors = g.Due, g.Failed, g.Errors
		if g.Failed == 0 && g.Verified == 0 {
			res.failed, res.errors = 1, []string{"no reply was verified in full"}
		}
		if !traced {
			res.metrics = r.metrics()
			break
		}
		rec := newRecorder()
		m, n, err := replayServe(ctx, workload, seed, window, rec)
		if err != nil {
			return nil, err
		}
		m["engine.instance_hit_share"] = metric{g.InstanceHitShare, "ratio", g.Due}
		m["engine.result_hit_share"] = metric{g.ResultHitShare, "ratio", g.Due}
		m["engine.batch_mean"] = metric{g.BatchMean, "count", g.Due}
		m["latency_p50_ms"] = metric{g.LatP50, "ms", g.Samples}
		m["latency_p99_ms"] = metric{g.LatP99, "ms", g.Samples}
		m["gen.late_ms_p99"] = metric{g.LateP99, "ms", g.Due}
		m["host.steal_share"] = metric{g.StealShare, "ratio", 1}
		res.metrics = m
		res.attempted += n
		return res, rec.write(filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed)))
	default:
		return nil, fmt.Errorf("unknown workload %q (want solve, serve-cold or serve-warm)", workload)
	}
	return res, nil
}

// report prints the metrics as a table and then as the final JSON line, and
// reports whether the run was correct. A per-layer metric a workload does
// not exercise reads 0: that layer did no work in it.
func report(res *result, traced bool) bool {
	names := endToEnd
	if traced {
		names = perLayer
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jm{}
	for _, nu := range names {
		m, ok := res.metrics[nu[0]]
		if !ok {
			m = metric{unit: nu[1]}
		}
		if m.unit != nu[1] {
			panic(fmt.Sprintf("metric %s has unit %s, declared %s", nu[0], m.unit, nu[1]))
		}
		metrics[nu[0]] = jm{m.value, m.unit}
		fmt.Printf("%-26s %14.6g %-6s n=%d\n", nu[0], m.value, m.unit, m.samples)
	}
	for _, e := range res.errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	correct := res.failed == 0
	attempted := max(res.attempted, 1)
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{correct, attempted, res.failed, metrics})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
	return correct
}
