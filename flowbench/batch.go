package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cell"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/designs"
	"repro/internal/eval"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/sta"
	"repro/internal/tech"
)

// Workload constants of the batch workloads. The netlists and the suite's
// flow seed are pinned to seed 1 (the paper-size netcard and the golden
// suite), so every run does the same work; the workload seed varies the
// rest of the input (see runNetcard and runSuite).
const (
	netcardScale = 1.0
	netcardClock = 1.0 // GHz, fixed: no f_max search
	suiteScale   = 0.1
	suiteFmaxIt  = 3 // as in the golden tables
	// designSeed generates every netlist the benchmark feeds the program.
	designSeed = 1
)

// setupReps is how many times each workload sets up per run, so setup_s
// is a median; netcard's paper-size generation takes seconds, so it
// repeats least.
var setupReps = map[string]int{"flow-netcard": 3, "suite": 5, "serve-whatif": 5}

// repResult is what one repetition (one fresh worker process) reports to
// the parent on its standard output.
type repResult struct {
	SetupS    []float64          `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	AnswersMS []float64          `json:"answers_ms"`
	RoundsMS  []float64          `json:"rounds_ms"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems"`
	Digest    string             `json:"digest"`
	Layer     map[string]float64 `json:"layer"`
}

func (r *repResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// gcTotals reads the runtime's cumulative GC and allocation counters.
type gcTotals struct {
	cycles  uint32
	pauseNS uint64
	alloc   uint64
}

func readGC() gcTotals {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcTotals{cycles: m.NumGC, pauseNS: m.PauseTotalNs, alloc: m.TotalAlloc}
}

func (a gcTotals) into(layer map[string]float64, b gcTotals) {
	layer["gc.cycles"] = float64(b.cycles - a.cycles)
	layer["gc.pause_ms"] = float64(b.pauseNS-a.pauseNS) / 1e6
	layer["alloc_mb"] = float64(b.alloc-a.alloc) / (1 << 20)
}

// setupOnce builds the 12-track library and generates the named designs,
// timing each part into the recorder.
func setupOnce(rec *recorder, names []designs.Name, scale float64, seed int64) ([]*netlist.Design, error) {
	var lib *cell.Library
	rec.time("cell.library", "setup", -1, func() error {
		lib = cell.NewLibrary(tech.Variant12T())
		return nil
	})
	out := make([]*netlist.Design, len(names))
	for i, n := range names {
		if err := rec.time("designs.generate", "setup", -1, func() error {
			d, err := designs.Generate(n, lib, designs.Params{Scale: scale, Seed: seed})
			out[i] = d
			return err
		}); err != nil {
			return nil, fmt.Errorf("generate %s: %w", n, err)
		}
	}
	return out, nil
}

// setup runs setupOnce reps times and returns the last designs with
// every repetition's duration.
func setup(rec *recorder, reps int, names []designs.Name, scale float64, seed int64) ([]*netlist.Design, []float64, error) {
	var ds []*netlist.Design
	var times []float64
	for i := 0; i < reps; i++ {
		ds = nil
		runtime.GC() // earlier repetitions' designs are garbage
		t0 := time.Now()
		var err error
		if ds, err = setupOnce(rec, names, scale, seed); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return ds, times, nil
}

// runNetcard is one flow-netcard repetition: set up, then one
// Hetero-M3D flow of netcard at scale 1.0 and a fixed 1 GHz clock, with
// the workload seed as the flow's partitioning seed, then the output
// checks and (traced) the kernel calls.
func runNetcard(cfg childConfig) *repResult {
	rep := &repResult{Attempted: 1, Layer: map[string]float64{}}
	rec := newRecorder(cfg.trace)
	ds, times, err := setup(rec, setupReps["flow-netcard"], []designs.Name{designs.Netcard}, netcardScale, designSeed)
	rep.SetupS = times
	if err != nil {
		rep.Failed = 1
		rep.problem("setup: %v", err)
		return rep
	}
	src := ds[0]

	opt := core.DefaultOptions(netcardClock)
	opt.Seed = cfg.seed
	opt.FlowWorkers = runtime.NumCPU()
	sink := newFlowSink(rec, -1, false)
	opt.Events = sink

	runtime.GC()
	g0, c0, t0 := readGC(), cpuSeconds(), time.Now()
	res, err := core.Run(context.Background(), src, core.ConfigHetero, opt)
	rep.WallS = time.Since(t0).Seconds()
	rep.CPUS = cpuSeconds() - c0
	g0.into(rep.Layer, readGC())
	if err != nil {
		rep.Failed = 1
		rep.problem("flow: %v", err)
		return rep
	}
	rep.AnswersMS = []float64{rep.WallS * 1000}
	spans := rec.snapshot()
	rep.RoundsMS = stageDurations(spans)
	flowLayers(rep.Layer, spans, sink.counters())
	rep.Layer["trace.flow_uncovered_ms"] = rep.WallS*1000 - ms(stageUnion(spans))

	// Output checks, outside the timed phase.
	scfg := signoffConfig(netcardClock, res, opt.FlowWorkers)
	in := check.Input{
		Design:       res.Design,
		Tiers:        2,
		Libs:         res.Libs,
		Router:       res.Router,
		ClockBuilt:   true,
		TierLibs:     true,
		ReportedMIVs: &res.PPAC.MIVs,
	}
	in.RowHeights[0] = res.Libs[0].Variant.CellHeight
	in.RowHeights[1] = res.Libs[1].Variant.CellHeight
	crep := check.Run(in, check.ClassERC|check.ClassTDR|check.ClassENG)
	if n := crep.Count(check.Error); n > 0 {
		rep.problem("check: %d error findings: %v", n, crep.Err(check.Error))
	}
	if fresh, err := sta.Analyze(res.Design, scfg); err != nil {
		rep.problem("fresh sta.Analyze: %v", err)
	} else if !sameBits(fresh.WNS, res.PPAC.WNS) || !sameBits(fresh.TNS, res.PPAC.TNS) {
		rep.problem("fresh sta.Analyze WNS/TNS %v/%v != sign-off %v/%v",
			fresh.WNS, fresh.TNS, res.PPAC.WNS, res.PPAC.TNS)
	}
	w := db.NewWriter()
	core.PutPPAC(w, res.PPAC)
	rep.Digest = digest(w.Bytes())
	if cfg.trace {
		kernelCalls(rec, rep, res, core.ConfigHetero, netcardClock, scfg)
		finishTrace(cfg, rep, rec)
	}
	if len(rep.Problems) > 0 {
		rep.Failed = 1
	}
	return rep
}

// runSuite is one suite repetition: the full Tables I–VIII evaluation at
// scale 0.1 (generation included in the timed work), then the golden
// check and (traced) the kernel calls on every final flow state. The
// suite runs the golden configuration (seed 1); the workload seed orders
// the designs and configurations handed to the evaluation pool, which
// changes its schedule but never its tables.
func runSuite(cfg childConfig) *repResult {
	rep := &repResult{Layer: map[string]float64{}}
	rec := newRecorder(cfg.trace)
	_, times, err := setup(rec, setupReps["suite"], designs.All, suiteScale, designSeed)
	rep.SetupS = times
	if err != nil {
		rep.Attempted, rep.Failed = 1, 1
		rep.problem("setup: %v", err)
		return rep
	}

	opt := eval.DefaultSuiteOptions(suiteScale)
	opt.Seed = designSeed
	opt.FmaxIterations = suiteFmaxIt
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(opt.Designs), func(i, j int) { opt.Designs[i], opt.Designs[j] = opt.Designs[j], opt.Designs[i] })
	rng.Shuffle(len(opt.Configs), func(i, j int) { opt.Configs[i], opt.Configs[j] = opt.Configs[j], opt.Configs[i] })
	opt.Workers = runtime.NumCPU()
	rep.Attempted = len(opt.Designs) * len(opt.Configs)

	runtime.GC()
	g0, c0, t0 := readGC(), cpuSeconds(), time.Now()
	top := rec.begin("suite", "suite", -1)
	sink := newFlowSink(rec, top, true)
	opt.Events = sink
	s, err := eval.RunSuite(context.Background(), opt)
	suiteWall := time.Since(t0)
	var renders map[string]string
	if err == nil {
		renders, err = renderTables(rec, top, s)
	}
	rec.end(top)
	rep.WallS = time.Since(t0).Seconds()
	rep.CPUS = cpuSeconds() - c0
	g0.into(rep.Layer, readGC())
	if err != nil {
		rep.Failed = rep.Attempted
		rep.problem("suite: %v", err)
		return rep
	}
	rep.AnswersMS = []float64{rep.WallS * 1000}
	spans := rec.snapshot()
	rep.RoundsMS = stageDurations(spans)
	flowLayers(rep.Layer, spans, sink.counters())
	evalLayers(rep.Layer, spans, sink, ms(suiteWall), opt.Workers)

	// Output check: the golden bytes, at every workload seed.
	rep.Digest = tablesDigest(renders)
	bad := checkGoldens(cfg.root, renders)
	for _, name := range bad {
		rep.problem("%s differs from internal/eval/testdata/golden", name)
	}
	rep.Failed += min(len(bad), rep.Attempted)
	if cfg.trace {
		for _, d := range s.DesignsInOrder() {
			for _, c := range opt.Configs {
				if res := s.Results[d][c]; res != nil {
					kernelCalls(rec, rep, res, c, s.Fmax[d], signoffConfig(s.Fmax[d], res, 1))
				}
			}
		}
		finishTrace(cfg, rep, rec)
	}
	return rep
}

// renderTables renders Tables I–VIII exactly as the golden harness does,
// timing the Table V ablation flows and the Tables II/III FO-4
// simulations as spans of their own.
func renderTables(rec *recorder, parent int, s *eval.Suite) (map[string]string, error) {
	var t2, t3, t5, t8 interface{ String() string }
	if err := rec.time("spice.fo4", "suite", parent, func() error {
		a, err := eval.TableII()
		if err != nil {
			return err
		}
		b, err := eval.TableIII()
		t2, t3 = a, b
		return err
	}); err != nil {
		return nil, err
	}
	if err := rec.time("eval.table_v", "suite", parent, func() error {
		t, err := eval.TableV(s.Opt.Scale, s.Opt.Seed)
		t5 = t
		return err
	}); err != nil {
		return nil, err
	}
	if err := rec.time("eval.tables", "suite", parent, func() error {
		t, err := s.TableVIII()
		t8 = t
		return err
	}); err != nil {
		return nil, err
	}
	return map[string]string{
		"table_i.txt":    s.TableI().String(),
		"table_ii.txt":   t2.String(),
		"table_iii.txt":  t3.String(),
		"table_iv.txt":   eval.TableIV().String(),
		"table_v.txt":    t5.String(),
		"table_vi.txt":   s.TableVI().String(),
		"table_vii.txt":  s.TableVII().String(),
		"table_viii.txt": t8.String(),
	}, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func tablesDigest(renders map[string]string) string {
	h := sha256.New()
	for _, k := range sortedKeys(renders) {
		fmt.Fprintf(h, "%s\x00%s\x00", k, renders[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkGoldens returns the names of the renders that differ from the
// committed golden tables.
func checkGoldens(root string, renders map[string]string) []string {
	var bad []string
	for _, name := range sortedKeys(renders) {
		want, err := os.ReadFile(filepath.Join(root, "internal", "eval", "testdata", "golden", name))
		if err != nil || string(want) != renders[name] {
			bad = append(bad, name)
		}
	}
	return bad
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// stageDurations lists every stage span's duration in ms.
func stageDurations(spans []span) []float64 {
	var out []float64
	for _, s := range spans {
		if s.End >= 0 && strings.HasPrefix(s.Name, "stage.") {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// flowStages are the stages whose time (and, for three of them,
// allocation) the per-layer report names.
var flowStages = []string{
	core.StageMap, core.StageSynth, core.StagePlace, core.StageLegalize,
	core.StageTimingPartition, core.StagePartition, core.StageECO, core.StageCTS,
	core.StageRepair, core.StageFinalRepair, core.StagePower, core.StageSignoff,
}

var allocStages = []string{core.StageMap, core.StagePlace, core.StageCTS}

// flowLayers fills the per-stage and engine-counter metrics of the
// flow layers from the stage spans and the summed stage counters.
func flowLayers(layer map[string]float64, spans []span, stats map[string]int64) {
	tot := totalsByName(spans)
	for _, st := range flowStages {
		if t := tot["stage."+st]; t != nil {
			layer["stage."+st+"_ms"] = t.TotalMS
		}
	}
	for _, st := range allocStages {
		if t := tot["stage."+st]; t != nil {
			layer["stage."+st+"_alloc_mb"] = t.AllocMB
		}
	}
	// Setup ran several times; report one setup's worth.
	if lib, gen := tot["cell.library"], tot["designs.generate"]; lib != nil && gen != nil {
		layer["cell.library_ms"] = lib.TotalMS / float64(lib.Count)
		layer["designs.generate_ms"] = gen.TotalMS / float64(lib.Count)
	}
	layer["place.congestion_retries"] = float64(stats[flow.StatCongestionRetries])
	layer["sta.full"] = float64(stats[flow.StatSTAFull])
	layer["sta.incr"] = float64(stats[flow.StatSTAIncr])
	layer["sta.nodes"] = float64(stats[flow.StatSTANodes])
	layer["rc.hits"] = float64(stats[flow.StatRCHits])
	layer["rc.misses"] = float64(stats[flow.StatRCMisses])
	hr := hitRate(stats[flow.StatRCHits], stats[flow.StatRCMisses])
	layer["rc.hit_rate"] = hr.Value()
	layer["rc.lookups"] = hr.Base
	layer["par.batches"] = float64(stats[flow.StatParBatches])
	layer["par.tasks"] = float64(stats[flow.StatParTasks])
}

// stageUnion is the time covered by at least one closed stage span. The
// flow's wall time measured around core.Run minus this is the flow time
// no stage accounts for: work before the first stage, between stages or
// after sign-off.
func stageUnion(spans []span) time.Duration {
	var ivs [][2]time.Duration
	for _, s := range spans {
		if s.End >= 0 && strings.HasPrefix(s.Name, "stage.") {
			ivs = append(ivs, [2]time.Duration{s.Start, s.End})
		}
	}
	return unionLength(ivs)
}

// evalLayers fills the evaluation-pool metrics of a suite run.
func evalLayers(layer map[string]float64, spans []span, sink *flowSink, wallMS float64, workers int) {
	tot := totalsByName(spans)
	var busy float64
	flows := 0
	for _, name := range []string{"flow", "fmax-probe"} {
		if t := tot[name]; t != nil {
			busy += t.TotalMS
			flows += t.Count
		}
	}
	layer["eval.flows"] = float64(flows)
	if t := tot["flow"]; t != nil {
		layer["eval.longest_flow_ms"] = t.MaxMS
	}
	sink.mu.Lock()
	layer["eval.fmax_ms"] = sink.fmaxMS
	sink.mu.Unlock()
	u := poolUtil(busy, wallMS, workers)
	layer["eval.pool_util"] = u.Value()
	layer["eval.pool_capacity_ms"] = u.Base
	if t := tot["eval.table_v"]; t != nil {
		layer["eval.table_v_ms"] = t.TotalMS
	}
	if t := tot["spice.fo4"]; t != nil {
		layer["spice.fo4_ms"] = t.TotalMS
	}
}

// signoffConfig is the timing configuration of a flow's own sign-off,
// built as core builds it: the flow's clock tree for latency and the
// boundary derates (sta.Config.Hetero) off, as they stay at sign-off. A
// fresh analysis with it must reproduce the sign-off WNS/TNS bit for bit.
// (serve.TimingConfig turns the derates on for Hetero-M3D sessions, so it
// is not the sign-off configuration.)
func signoffConfig(clockGHz float64, res *core.Result, workers int) sta.Config {
	c := sta.DefaultConfig(1 / clockGHz)
	if res.Clock != nil {
		c.Latency = res.Clock.LatencyFunc()
	}
	c.Workers = workers
	return c
}

// kernelCalls times the layers' public kernels once on a final state,
// analysing timing with scfg, and adds each call's ms to the per-layer
// metrics.
func kernelCalls(rec *recorder, rep *repResult, res *core.Result, cfg core.ConfigName, clock float64, scfg sta.Config) {
	if res == nil || res.Design == nil {
		return
	}
	d := res.Design
	call := func(name string, fn func() error) {
		i := rec.begin(name, "kernels", -1)
		err := fn()
		rep.Layer[name+"_ms"] += ms(rec.end(i))
		if err != nil {
			rep.problem("%s on %s/%s: %v", name, d.Name, cfg, err)
		}
	}
	call("netlist.validate", d.Validate)
	call("sta.analyze", func() error { _, err := sta.Analyze(d, scfg); return err })
	call("sta.timer_update", func() error {
		t, err := sta.NewTimer(d, scfg)
		if err != nil {
			return err
		}
		defer t.Close()
		_, err = t.Update()
		return err
	})
	call("power.analyze", func() error {
		pc := power.DefaultConfig(clock)
		pc.Hetero = cfg == core.ConfigHetero
		_, err := power.Analyze(d, pc)
		return err
	})
	call("route.wirelength", func() error { route.New().Wirelength(d); return nil })
}
