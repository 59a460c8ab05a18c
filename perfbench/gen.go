package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	bmatch "repro"
	"repro/internal/graphio"
	"repro/internal/loadgen"
)

// senders is the generator's connection count: two keep-alive connections,
// so a request finds a free one while the other waits for its reply.
const senders = 2

// verifySample is how many window replies are fetched again in full after
// the window and checked against their instance.
const verifySample = 16

// sliceLen is the schedule time of one slice of the timed window. Each
// slice starts with a calibration on the daemon's CPU while the daemon
// idles, and the daemon's CPU and solve times in it are scaled by that
// calibration (see calibration). The two CPUs' speeds move together over
// seconds but hardly over half a second, so slices are short.
const sliceLen = time.Second

// genResult is what the generator reports to the parent.
type genResult struct {
	Due, Within, Failed, Samples int
	LatP50, LatP99, LateP99      float64 // ms
	CPUMsPerReq, StealShare      float64
	PeakRSS                      float64 // MiB, median over the slices
	Slices                       int
	InstanceHitShare             float64
	ResultHitShare, BatchMean    float64
	SolveS                       map[string]float64
	SolveN                       map[string]int
	QualityApprox                float64
	QualityApproxN               int
	QualityMax, QualityMaxW      float64
	Verified                     int
	Errors                       []string
}

func (r *genResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// head is the part of a /v1/solve reply that precedes its arrays.
type head struct {
	n, m, size       int
	feasible, cached bool
	elapsedMs        float64
}

// headField returns the raw value of key in a reply head.
func headField(b []byte, key string) ([]byte, bool) {
	i := bytes.Index(b, []byte(`"`+key+`":`))
	if i < 0 {
		return nil, false
	}
	v := b[i+len(key)+3:]
	j := bytes.IndexAny(v, ",}")
	if j < 0 {
		return nil, false
	}
	return v[:j], true
}

func parseHead(b []byte) (head, error) {
	var h head
	for _, f := range []struct {
		key string
		int *int
		bit *bool
		num *float64
	}{
		{key: "n", int: &h.n}, {key: "m", int: &h.m}, {key: "size", int: &h.size},
		{key: "feasible", bit: &h.feasible}, {key: "cached", bit: &h.cached},
		{key: "elapsedMs", num: &h.elapsedMs},
	} {
		raw, ok := headField(b, f.key)
		if !ok {
			return h, fmt.Errorf("reply head lacks %q: %.80q", f.key, b)
		}
		var err error
		switch {
		case f.int != nil:
			*f.int, err = strconv.Atoi(string(raw))
		case f.bit != nil:
			*f.bit, err = strconv.ParseBool(string(raw))
		default:
			*f.num, err = strconv.ParseFloat(string(raw), 64)
		}
		if err != nil {
			return h, fmt.Errorf("reply field %q: %w", f.key, err)
		}
	}
	return h, nil
}

// client posts solves and reads only the reply head: the fields the checks
// need come before the arrays, and the rest is discarded unparsed.
type client struct {
	c    *http.Client
	base string
}

func newClient(addr string) *client {
	return &client{
		c: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     senders,
				MaxIdleConnsPerHost: senders,
				DisableCompression:  true,
			},
		},
		base: "http://" + addr,
	}
}

func (c *client) postHead(algo string, seed int64, payload []byte, buf []byte) (int, head, error) {
	resp, err := c.c.Post(c.base+solveURL(algo, seed), "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		return 0, head{}, err
	}
	defer resp.Body.Close()
	n, err := io.ReadFull(resp.Body, buf)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return resp.StatusCode, head{}, err
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, head{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, head{}, fmt.Errorf("status %d: %.200s", resp.StatusCode, buf[:n])
	}
	h, err := parseHead(buf[:n])
	return resp.StatusCode, h, err
}

// fullReply is a whole /v1/solve reply.
type fullReply struct {
	N         int     `json:"n"`
	M         int     `json:"m"`
	Size      int     `json:"size"`
	Weight    float64 `json:"weight"`
	Feasible  bool    `json:"feasible"`
	ElapsedMs float64 `json:"elapsedMs"`
	Cert      struct {
		DualBound float64 `json:"dualBound"`
		FracValue float64 `json:"fracValue"`
	} `json:"cert"`
	X     []float64 `json:"x"`
	Edges []int32   `json:"edges"`
}

// postFull posts a solve, parses the whole reply and checks it against the
// instance: 200, feasible, n and m as posted, and the matching or the LP
// solution verified from the graph alone.
func (c *client) postFull(algo string, seed int64, inst *instance) (*fullReply, error) {
	resp, err := c.c.Post(c.base+solveURL(algo, seed), "application/octet-stream", bytes.NewReader(inst.payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", algo, inst.name, resp.StatusCode, body)
	}
	var r fullReply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("%s %s: %w", algo, inst.name, err)
	}
	if !r.Feasible || r.N != inst.g.N || r.M != inst.g.M() {
		return nil, fmt.Errorf("%s %s: feasible=%t n=%d m=%d, posted n=%d m=%d", algo, inst.name, r.Feasible, r.N, r.M, inst.g.N, inst.g.M())
	}
	o := outcome{edges: r.Edges, size: r.Size, weight: r.Weight, x: r.X, value: r.Cert.FracValue, dual: r.Cert.DualBound}
	if err := checkOutcome(bmatch.Algo(algo), inst, o); err != nil {
		return nil, err
	}
	return &r, nil
}

// daemonStats is the part of /v1/stats the per-layer metrics use.
type daemonStats struct {
	Pool struct {
		Completed int64 `json:"completed"`
		Batches   int64 `json:"batches"`
	} `json:"pool"`
	Cache struct {
		InstanceHits   int64 `json:"instanceHits"`
		InstanceMisses int64 `json:"instanceMisses"`
		ResultHits     int64 `json:"resultHits"`
		ResultMisses   int64 `json:"resultMisses"`
	} `json:"cache"`
}

func (c *client) stats() (daemonStats, error) {
	var s daemonStats
	resp, err := c.c.Get(c.base + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

func share(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// shotResult is one timed request.
type shotResult struct {
	late, lat time.Duration
	h         head
	err       error
}

// runGen is the generator process: set-up, then the open-loop window, then
// the max/maxw probes and the full-reply checks.
func runGen(workload string, seed int64, window time.Duration, addr string, daemonPid, calCPU int) error {
	cfg, ok := serveConfigs[workload]
	if !ok {
		return fmt.Errorf("unknown serving workload %q", workload)
	}
	in, err := buildServeInputs(cfg, seed, window)
	if err != nil {
		return err
	}
	c := newClient(addr)
	buf := make([]byte, 1024)
	if cfg.warm {
		for _, it := range in.corpus {
			for _, e := range serveMix {
				for s := 0; s < cfg.seedStreams; s++ {
					if _, h, err := c.postHead(e.Algo, int64(s), it.Payload, buf); err != nil || !h.feasible {
						return fmt.Errorf("warm-up %s %s: %v", e.Algo, it.Name, err)
					}
				}
			}
		}
	}
	fmt.Println("ready")
	if line, _ := bufio.NewReader(os.Stdin).ReadString('\n'); line != "go\n" {
		return nil // the parent only timed the set-up
	}

	res := &genResult{SolveS: map[string]float64{}, SolveN: map[string]int{}, Due: len(in.shots)}
	st0, err := c.stats()
	if err != nil {
		return err
	}
	ticks0, err := readHostTicks()
	if err != nil {
		return err
	}
	// The generator's collector stays off in the window, so it never
	// delays the pacer; the window allocates a few MB at most. It runs
	// before each slice's calibration instead.
	gcPercent := debug.SetGCPercent(-1)
	results := make([]shotResult, len(in.shots))
	scales := make([]float64, len(in.shots)) // the calibration of each shot's slice
	cpu := 0.0                               // scaled daemon CPU seconds
	var peaks []float64                      // the daemon's VmHWM per slice
	daemon := strconv.Itoa(daemonPid)
	for lo := 0; lo < len(in.shots); {
		from := in.shots[lo].At / sliceLen * sliceLen
		hi := lo
		for hi < len(in.shots) && in.shots[hi].At < from+sliceLen {
			hi++
		}
		runtime.GC()
		var f float64
		if err := onCPU(calCPU, func() error { f = calRequest.scale(); return nil }); err != nil {
			return err
		}
		if err := resetPeakRSS(daemon); err != nil {
			return err
		}
		cpu0, err := procRunSeconds(daemonPid)
		if err != nil {
			return err
		}
		openLoop(c, in.shots[lo:hi], from, in.corpus, results[lo:hi])
		cpu1, err := procRunSeconds(daemonPid)
		if err != nil {
			return err
		}
		peak, err := peakRSSMB(daemon)
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
		cpu += (cpu1 - cpu0) * f
		for i := lo; i < hi; i++ {
			scales[i] = f
		}
		lo = hi
	}
	debug.SetGCPercent(gcPercent)
	ticks1, err := readHostTicks()
	if err != nil {
		return err
	}
	st1, err := c.stats()
	if err != nil {
		return err
	}

	var lats, lates []float64
	elapsed := map[string][]float64{}
	var approxSize, approxOpt float64
	for i, r := range results {
		s := in.shots[i]
		it := in.corpus[s.Corpus]
		lates = append(lates, float64(r.late)/float64(time.Millisecond))
		switch {
		case r.err != nil:
			res.fail("%s %s: %v", s.Algo, it.Name, r.err)
			continue
		case !r.h.feasible || r.h.n != it.N || r.h.m != it.M:
			res.fail("%s %s: feasible=%t n=%d m=%d, posted n=%d m=%d", s.Algo, it.Name, r.h.feasible, r.h.n, r.h.m, it.N, it.M)
			continue
		}
		ms := float64(r.lat) / float64(time.Millisecond)
		lats = append(lats, ms)
		if r.lat <= cfg.limit {
			res.Within++
		}
		elapsed[s.Algo] = append(elapsed[s.Algo], r.h.elapsedMs/1000*scales[i])
		if s.Algo == "approx" && in.opt[s.Corpus] > 0 {
			approxSize += float64(r.h.size)
			approxOpt += float64(in.opt[s.Corpus])
			res.QualityApproxN++
		}
	}
	res.Samples = len(lats)
	res.LatP50, res.LatP99 = median(lats), quantile(lats, 0.99)
	res.LateP99 = quantile(lates, 0.99)
	res.CPUMsPerReq = cpu * 1000 / float64(res.Due)
	res.PeakRSS, res.Slices = median(peaks), len(peaks)
	res.StealShare = stealShare(ticks0, ticks1)
	res.InstanceHitShare = share(st1.Cache.InstanceHits-st0.Cache.InstanceHits, st1.Cache.InstanceMisses-st0.Cache.InstanceMisses)
	res.ResultHitShare = share(st1.Cache.ResultHits-st0.Cache.ResultHits, st1.Cache.ResultMisses-st0.Cache.ResultMisses)
	if b := st1.Pool.Batches - st0.Pool.Batches; b > 0 {
		res.BatchMean = float64(st1.Pool.Completed-st0.Pool.Completed) / float64(b)
	}
	for algo, v := range elapsed {
		res.SolveS[algo] = median(v)
		res.SolveN[algo] = len(v)
	}
	if approxOpt > 0 {
		res.QualityApprox = approxSize / approxOpt
	}

	verify(c, in, results, res)
	probe(c, in, seed, calCPU, res)

	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// spinWindow is how long before a shot's due time the pacer stops sleeping.
const spinWindow = 1500 * time.Microsecond

// openLoop sends every shot at its due time, counted from `from` on the
// schedule, over at most `senders` connections, whatever the replies do. A
// shot whose connections are busy waits in the queue, and its latency runs
// from its due time to the last byte of its reply. It returns when every
// reply is in.
func openLoop(c *client, shots []loadgen.Shot, from time.Duration, corpus []loadgen.CorpusItem, results []shotResult) {
	queue := make(chan int, len(shots)) // one slot per shot: the pacer never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 1024)
			for i := range queue {
				s := shots[i]
				_, h, err := c.postHead(s.Algo, s.Seed, corpus[s.Corpus].Payload, buf)
				results[i].lat = time.Since(start) - (s.At - from)
				results[i].h, results[i].err = h, err
			}
		}()
	}
	for i, s := range shots {
		due := s.At - from
		// The runtime's timers fire on millisecond ticks, so a plain sleep
		// would send half a millisecond late on average: sleep to just
		// before the due time, then yield until it has come.
		if d := due - time.Since(start) - spinWindow; d > 0 {
			time.Sleep(d)
		}
		for time.Since(start) < due {
			runtime.Gosched()
		}
		results[i].late = time.Since(start) - due
		queue <- i
	}
	close(queue)
	wg.Wait()
}

// verify fetches a sample of the window's replies again in full and checks
// them against their instances; sizes must repeat the window's replies.
func verify(c *client, in *serveInputs, results []shotResult, res *genResult) {
	step := len(in.shots)/verifySample + 1
	for i := 0; i < len(in.shots); i += step {
		if results[i].err != nil {
			continue
		}
		s := in.shots[i]
		it := in.corpus[s.Corpus]
		g, b, err := graphio.DecodeBinary(it.Payload)
		if err != nil {
			res.fail("decoding %s: %v", it.Name, err)
			continue
		}
		inst := &instance{name: it.Name, g: g, b: b, payload: it.Payload, optSize: in.opt[s.Corpus]}
		r, err := c.postFull(s.Algo, s.Seed, inst)
		switch {
		case err != nil:
			res.fail("verifying shot %d: %v", i, err)
		case r.Size != results[i].h.size:
			res.fail("verifying shot %d: size %d, window reply said %d", i, r.Size, results[i].h.size)
		default:
			res.Verified++
		}
	}
}

// probe solves the small max/maxw set through the daemon after the window:
// solve_s.max and solve_s.maxw sum the daemon's solve times, each scaled by
// a calibration run right before it, and the qualities compare with the
// exact optima.
func probe(c *client, in *serveInputs, seed int64, calCPU int, res *genResult) {
	outs := map[bmatch.Algo][]outcome{}
	for _, a := range []bmatch.Algo{bmatch.AlgoMax, bmatch.AlgoMaxWeight} {
		for _, inst := range in.probes.small {
			var f float64
			if err := onCPU(calCPU, func() error { f = calCompute.scale(); return nil }); err != nil {
				res.fail("probe: %v", err)
				return
			}
			r, err := c.postFull(string(a), seed, inst)
			if err != nil {
				res.fail("probe: %v", err)
				outs[a] = append(outs[a], outcome{})
				continue
			}
			res.SolveS[string(a)] += r.ElapsedMs / 1000 * f
			res.SolveN[string(a)]++
			outs[a] = append(outs[a], outcome{size: r.Size, weight: r.Weight})
		}
	}
	res.QualityMax, res.QualityMaxW = smallQuality(in.probes.small, outs[bmatch.AlgoMax], outs[bmatch.AlgoMaxWeight])
}
