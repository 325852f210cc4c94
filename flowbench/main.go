// Command flowbench is the repository's benchmark. It runs one of three
// workloads — flow-netcard, suite, serve-whatif — measures it from
// outside the code under test, checks the workload's outputs, and prints
// every metric by name with its unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh from the repository root, which builds this
// package and cmd/flowd first:
//
//	bash flowbench/run.sh --workload flow-netcard --seed 1 --seconds 36 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans, writes a Chrome trace-event file under
// .bench_build/traces, and reports the per-layer metrics. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/par"
)

// metric is one reported figure's name, unit and direction.
type metric struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the flow or the daemon sees; every
// workload reports all of them (README.md defines each per workload).
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"first_answer_p50_ms", "ms", "lower"},
	{"first_answer_p95_ms", "ms", "lower"},
	{"round_p50_ms", "ms", "lower"},
	{"round_p99_ms", "ms", "lower"},
	{"slo_met_frac", "ratio", "higher"},
}

// perLayer are the traced run's metrics, grouped by the layer they
// measure. A metric a workload does not exercise reads 0.
var perLayer = []metric{
	{"designs.generate_ms", "ms", "lower"},
	{"cell.library_ms", "ms", "lower"},
	{"stage.map_ms", "ms", "lower"},
	{"stage.synth_ms", "ms", "lower"},
	{"netlist.validate_ms", "ms", "lower"},
	{"stage.map_alloc_mb", "MB", "lower"},
	{"stage.place_ms", "ms", "lower"},
	{"stage.legalize_ms", "ms", "lower"},
	{"stage.place_alloc_mb", "MB", "lower"},
	{"place.congestion_retries", "count", "lower"},
	{"stage.timing-partition_ms", "ms", "lower"},
	{"stage.partition_ms", "ms", "lower"},
	{"stage.eco_ms", "ms", "lower"},
	{"stage.cts_ms", "ms", "lower"},
	{"stage.cts_alloc_mb", "MB", "lower"},
	{"stage.timing-repair_ms", "ms", "lower"},
	{"stage.final-repair_ms", "ms", "lower"},
	{"stage.power-recovery_ms", "ms", "lower"},
	{"sta.full", "count", "lower"},
	{"sta.incr", "count", "lower"},
	{"sta.nodes", "count", "lower"},
	{"rc.hits", "count", "higher"},
	{"rc.misses", "count", "lower"},
	{"rc.hit_rate", "ratio", "higher"},
	{"rc.lookups", "count", "lower"},
	{"sta.analyze_ms", "ms", "lower"},
	{"sta.timer_update_ms", "ms", "lower"},
	{"route.wirelength_ms", "ms", "lower"},
	{"stage.signoff_ms", "ms", "lower"},
	{"power.analyze_ms", "ms", "lower"},
	{"db.load_ms", "ms", "lower"},
	{"db.verify_ms", "ms", "lower"},
	{"db.bytes", "bytes", "lower"},
	{"serve.dial_ms.p50", "ms", "lower"},
	{"serve.dial_ms.p99", "ms", "lower"},
	{"serve.open_ms.p50", "ms", "lower"},
	{"serve.open_ms.p99", "ms", "lower"},
	{"serve.mutate_ms.p50", "ms", "lower"},
	{"serve.mutate_ms.p99", "ms", "lower"},
	{"serve.timing_first_ms.p50", "ms", "lower"},
	{"serve.timing_first_ms.p99", "ms", "lower"},
	{"serve.timing_incr_ms.p50", "ms", "lower"},
	{"serve.timing_incr_ms.p99", "ms", "lower"},
	{"serve.close_ms.p50", "ms", "lower"},
	{"serve.close_ms.p99", "ms", "lower"},
	{"serve.busy_refusals", "count", "lower"},
	{"serve.timer_full", "count", "lower"},
	{"serve.timer_incr", "count", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"eval.flows", "count", "lower"},
	{"eval.fmax_ms", "ms", "lower"},
	{"eval.longest_flow_ms", "ms", "lower"},
	{"eval.pool_util", "ratio", "higher"},
	{"eval.pool_capacity_ms", "ms", "lower"},
	{"eval.table_v_ms", "ms", "lower"},
	{"spice.fo4_ms", "ms", "lower"},
	{"par.batches", "count", "lower"},
	{"par.tasks", "count", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.pause_ms", "ms", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"trace.flow_uncovered_ms", "ms", "lower"},
}

var workloads = []string{"flow-netcard", "suite", "serve-whatif"}

// batchAnswerLimit is the latency limit of a batch repetition's answer
// (its PPAC record or its tables), from the start of the timed work.
const batchAnswerLimit = 90 * time.Second

// childConfig is what a worker process needs for one repetition.
type childConfig struct {
	workload string
	root     string
	seed     int64
	trace    bool
	traceOut string
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "flow-netcard, suite or serve-whatif")
		seed     = flag.Int64("seed", 1, "workload seed (inputs are generated from it)")
		seconds  = flag.Float64("seconds", 36, "measured time per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "repository root (goldens, build output)")
		flowd    = flag.String("flowd", ".bench_build/flowd", "flowd binary for serve-whatif")
		rate     = flag.Float64("serve-rate", 0, "serve-whatif open-loop arrival rate, sessions/s")
		firstLim = flag.Float64("first-answer-limit-ms", 0, "serve-whatif first-answer latency limit")
		roundLim = flag.Float64("round-limit-ms", 0, "serve-whatif round latency limit")
		child    = flag.String("child", "", "internal: run one repetition of this batch workload")
		traceOut = flag.String("trace-out", "", "internal: Chrome trace path of a child repetition")
	)
	flag.Parse()

	if *child != "" {
		cfg := childConfig{workload: *child, root: *root, seed: *seed, trace: *traceOut != "", traceOut: *traceOut}
		var rep *repResult
		switch *child {
		case "flow-netcard":
			rep = runNetcard(cfg)
		case "suite":
			rep = runSuite(cfg)
		default:
			fmt.Fprintf(os.Stderr, "flowbench: unknown child workload %q\n", *child)
			return 2
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "flowbench:", err)
			return 1
		}
		return 0
	}

	if !validWorkload(*workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "flowbench: want --workload %v --seed n --seconds s --trace 0|1\n", workloads)
		return 2
	}
	if _, err := os.Stat(filepath.Join(*root, "go.mod")); err != nil {
		fmt.Fprintln(os.Stderr, "flowbench: -root must be the repository root:", err)
		return 2
	}
	out := &output{traced: *trace == 1}
	var err error
	switch *workload {
	case "flow-netcard", "suite":
		err = batch(out, *workload, *root, *seed, *seconds)
	case "serve-whatif":
		if !(*rate > 0 && *firstLim > 0 && *roundLim > 0) {
			fmt.Fprintln(os.Stderr, "flowbench: serve-whatif needs --serve-rate, --first-answer-limit-ms and --round-limit-ms")
			return 2
		}
		l := serveLimits{rate: *rate, firstMS: *firstLim, roundMS: *roundLim, seconds: *seconds,
			connections: runtime.NumCPU(), seed: *seed}
		err = serveRun(out, *root, *flowd, l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowbench:", err)
		return 1
	}
	out.print()
	return 0
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if x == w {
			return true
		}
	}
	return false
}

// output accumulates one run's report.
type output struct {
	traced    bool
	prov      provenance
	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
	notes     []string
}

func (o *output) print() {
	provJSON, _ := json.Marshal(o.prov)
	fmt.Printf("provenance %s\n", provJSON)
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, p := range o.problems {
		fmt.Printf("problem: %s\n", p)
	}
	frac := 0.0
	if o.attempted > 0 {
		frac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("%-28s %14.6g %s  (%d of %d)\n", "failed_frac", frac, "ratio", o.failed, o.attempted)
	list, vals := endToEnd, o.e2e
	if o.traced {
		list, vals = perLayer, o.layer
	}
	metrics := map[string]any{}
	for _, m := range list {
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("%-28s %14.6g %s\n", m.Name, v, m.Unit)
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	attempted := max(o.attempted, 1)
	res := map[string]any{
		"correct":   o.failed == 0 && len(o.problems) == 0,
		"attempted": attempted,
		"failed":    min(o.failed, attempted),
		"metrics":   metrics,
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// batch runs a batch workload's repetitions, each in a fresh worker
// process, for about `seconds` (at least one). A traced run makes one
// untraced and one traced repetition and reports their wall-time
// difference as the tracing overhead.
func batch(out *output, workload, root string, seed int64, seconds float64) error {
	out.prov = batchProvenance(root, workload, seed, out.traced)
	var reps []*repResult
	var rss []float64
	if out.traced {
		base, _, err := spawn(workload, root, seed, "")
		if err != nil {
			return err
		}
		tracePath, err := tracePath(root, workload, seed)
		if err != nil {
			return err
		}
		rep, peak, err := spawn(workload, root, seed, tracePath)
		if err != nil {
			return err
		}
		out.notes = append(out.notes, "trace "+tracePath)
		reps, rss = []*repResult{base, rep}, []float64{peak}
		out.layer = rep.Layer
		out.layer["trace.overhead_s"] = rep.WallS - base.WallS
	} else {
		start := time.Now()
		for {
			t0 := time.Now()
			rep, peak, err := spawn(workload, root, seed, "")
			if err != nil {
				return err
			}
			reps, rss = append(reps, rep), append(rss, peak)
			last := time.Since(t0).Seconds()
			if time.Since(start).Seconds()+last > seconds {
				break
			}
		}
	}

	var setupS, wall, cpu, answers, rounds []float64
	digests := map[string]bool{}
	for _, r := range reps {
		setupS = append(setupS, r.SetupS...)
		wall = append(wall, r.WallS)
		cpu = append(cpu, r.CPUS)
		answers = append(answers, r.AnswersMS...)
		rounds = append(rounds, r.RoundsMS...)
		out.attempted += r.Attempted
		out.failed += r.Failed
		out.problems = append(out.problems, r.Problems...)
		if r.Digest != "" {
			digests[r.Digest] = true
		}
	}
	if len(digests) > 1 {
		out.failed++
		out.problems = append(out.problems, "repetitions of one seed produced different outputs")
	}
	for d := range digests {
		if err := checkSetDigest(root, out.prov, d); err != nil {
			out.failed++
			out.problems = append(out.problems, err.Error())
		}
	}
	met := 0
	for _, a := range answers {
		if a <= ms(batchAnswerLimit) {
			met++
		}
	}
	out.e2e = map[string]float64{
		"setup_s":             median(setupS),
		"wall_s":              median(wall),
		"cpu_s":               median(cpu),
		"peak_rss_mb":         median(rss),
		"first_answer_p50_ms": quantile(answers, 50),
		"first_answer_p95_ms": quantile(answers, 95),
		"round_p50_ms":        quantile(rounds, 50),
		"round_p99_ms":        quantile(rounds, 99),
		"slo_met_frac":        float64(met) / float64(max(len(answers), 1)),
	}
	out.notes = append(out.notes, fmt.Sprintf("repetitions %d; %s; %s", len(reps),
		population("answers", answers, 95), population("rounds", rounds, 99)))
	return nil
}

// population describes a latency sample under the percentile rule: its
// count, whether it supports the named percentile, and the highest
// percentile it does support.
func population(name string, samples []float64, p float64) string {
	return fmt.Sprintf("%s %d (p%g supported: %v; highest supported p%d)",
		name, len(samples), p, tailSupported(p, len(samples)), highestTail(len(samples)))
}

// batchProvenance records a batch workload's scale and worker counts:
// one flow at FlowWorkers = nproc for flow-netcard, nproc suite workers
// and RunSuite's own nested budget for suite.
func batchProvenance(root, workload string, seed int64, trace bool) provenance {
	if workload == "suite" {
		w := runtime.NumCPU()
		return newProvenance(root, workload, seed, suiteScale, w, par.Budget(runtime.GOMAXPROCS(0), w), trace)
	}
	return newProvenance(root, workload, seed, netcardScale, 1, runtime.NumCPU(), trace)
}

// spawn runs one repetition in a fresh worker process and returns its
// report and the process's peak RSS in MB.
func spawn(workload, root string, seed int64, traceOut string) (*repResult, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-child", workload, "-root", root, "-seed", strconv.FormatInt(seed, 10)}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s repetition: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	rep := &repResult{}
	if err := json.Unmarshal(lines[len(lines)-1], rep); err != nil {
		return nil, 0, fmt.Errorf("%s repetition report: %w", workload, err)
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	return rep, rss, nil
}

// tracePath is the Chrome trace file of a traced run.
func tracePath(root, workload string, seed int64) (string, error) {
	dir := filepath.Join(root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	p, err := filepath.Abs(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)))
	return p, err
}

// finishTrace writes a child repetition's spans as a Chrome trace.
func finishTrace(cfg childConfig, rep *repResult, rec *recorder) {
	prov := batchProvenance(cfg.root, cfg.workload, cfg.seed, true)
	if err := writeChromeTrace(cfg.traceOut, rec.snapshot(), prov); err != nil {
		rep.problem("write trace: %v", err)
	}
}

// checkSetDigest compares an output digest with the one the first run of
// this workload, seed and source recorded in the checkout, so every run
// of a set must produce identical outputs.
func checkSetDigest(root string, prov provenance, digest string) error {
	dir := filepath.Join(root, ".bench_build", "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%.16s", prov.Workload, prov.Seed, prov.Source))
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(path, []byte(digest), 0o644)
	}
	if err != nil {
		return err
	}
	if string(prev) != digest {
		return fmt.Errorf("output digest %.16s differs from this set's first run (%.16s)", digest, prev)
	}
	return nil
}

// serveRun runs serve-whatif and fills the report.
func serveRun(out *output, root, flowd string, l serveLimits) error {
	out.prov = newProvenance(root, "serve-whatif", l.seed, serveScale, l.connections, runtime.NumCPU(), out.traced)
	workdir := filepath.Join(root, ".bench_build", "serve", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workdir)
	var traceOut string
	if out.traced {
		var err error
		if traceOut, err = tracePath(root, "serve-whatif", l.seed); err != nil {
			return err
		}
		out.notes = append(out.notes, "trace "+traceOut)
	}
	res, err := runServe(flowd, workdir, l, out.traced, traceOut, out.prov)
	if err != nil {
		return err
	}
	var first, rounds []float64
	met := 0
	for _, r := range res.records {
		if r.err == nil {
			first = append(first, r.firstMS)
			rounds = append(rounds, r.roundsMS...)
		}
		if r.met(l) {
			met++
		}
	}
	out.attempted, out.failed, out.problems = res.attempted, res.failed, res.problems
	out.e2e = map[string]float64{
		"setup_s":             median(res.setupS),
		"wall_s":              res.wallS,
		"cpu_s":               res.cpuS,
		"peak_rss_mb":         res.rssMB,
		"first_answer_p50_ms": quantile(first, 50),
		"first_answer_p95_ms": quantile(first, 95),
		"round_p50_ms":        quantile(rounds, 50),
		"round_p99_ms":        quantile(rounds, 99),
		"slo_met_frac":        float64(met) / float64(max(res.attempted, 1)),
	}
	out.layer = res.layer
	if out.traced {
		out.layer["trace.overhead_s"] = res.overheadS
	}
	out.notes = append(out.notes, fmt.Sprintf("%s; %s; rate %.2f/s over %d connections; limits first %.1f ms, round %.1f ms",
		population("first answers", first, 95), population("rounds", rounds, 99),
		l.rate, l.connections, l.firstMS, l.roundMS))
	return nil
}
