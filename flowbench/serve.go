package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/serve"
	"repro/internal/sta"
	"repro/internal/tech"
)

// Workload constants of serve-whatif. The arrival rate and the latency
// limits are flags, recorded in BENCHMARK.json's command.
const (
	serveScale    = 0.25
	serveClock    = 1.0 // GHz
	serveBoundary = core.StagePlace
	// serveRounds per session: the first is the first answer, the rest
	// are timed from their due time as rounds.
	serveRounds = 8
	// serveMoves is k, the SetLoc moves of one MUTS batch.
	serveMoves = 4
	// serveDieUM bounds the moved coordinates (µm).
	serveDieUM = 150.0
	// serveChecks is how many sessions per run are rebuilt offline.
	serveChecks = 4
)

// serveSnapshots are the four warmed workloads a session picks from.
var serveSnapshots = []struct {
	design designs.Name
	config core.ConfigName
}{
	{designs.AES, core.Config2D12T},
	{designs.AES, core.ConfigHetero},
	{designs.LDPC, core.Config2D12T},
	{designs.LDPC, core.ConfigHetero},
}

// openRequest opens one of the four snapshots. Their netlists are pinned
// to designSeed; the workload seed drives each session's snapshot choice
// and mutation stream.
func openRequest(snap int) *serve.OpenRequest {
	s := serveSnapshots[snap]
	return &serve.OpenRequest{
		Design: string(s.design), Config: string(s.config),
		Scale: serveScale, Seed: designSeed, ClockGHz: serveClock, Boundary: serveBoundary,
	}
}

// sessionPlan is one session of the open-loop schedule.
type sessionPlan struct {
	Idx  int
	Due  time.Duration // from the start of the timed phase
	Snap int
	Seed int64 // the session's mutation stream
}

// poissonSchedule draws the open-loop schedule: a Poisson process at
// rate sessions/s over dur, conditioned on its expected count
// n = rate × dur, so every run offers the same load. Given n arrivals in
// [0, dur), a Poisson process places them as n sorted uniform draws.
// The arrival times are one fixed trace, drawn from designSeed, so the
// queueing every run sees is the same; the workload seed draws each
// session's snapshot and mutation stream. The same seed gives the same
// schedule.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []sessionPlan {
	arrivals := rand.New(rand.NewSource(designSeed))
	n := int(math.Round(rate * dur.Seconds()))
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(arrivals.Float64() * float64(dur))
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
	rng := rand.New(rand.NewSource(seed))
	out := make([]sessionPlan, n)
	for i, due := range dues {
		out[i] = sessionPlan{
			Idx: i, Due: due,
			Snap: rng.Intn(len(serveSnapshots)), Seed: rng.Int63(),
		}
	}
	return out
}

// roundMutations is the MUTS batch of one round, or nil for a round that
// only queries timing (one round in four, after the first).
func roundMutations(rng *rand.Rand, round int, cells int32, hetero bool) []serve.Mutation {
	if round%4 == 3 {
		return nil
	}
	muts := make([]serve.Mutation, 0, serveMoves+1)
	for i := 0; i < serveMoves; i++ {
		muts = append(muts, serve.Mutation{
			ID: rng.Int31n(cells), Kind: serve.MutSetLoc,
			X: rng.Float64() * serveDieUM, Y: rng.Float64() * serveDieUM,
		})
	}
	if hetero {
		muts = append(muts, serve.Mutation{
			ID: rng.Int31n(cells), Kind: serve.MutSetTier, Tier: uint8(rng.Intn(2)),
		})
	}
	return muts
}

// daemon is one flowd process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	cache  string
	done   chan struct{} // stderr drained
	gcMu   sync.Mutex
	gc     gcTrace
	exited bool
}

// gcTrace sums the daemon's GODEBUG=gctrace=1 lines.
type gcTrace struct {
	cycles  int
	pauseMS float64 // the two stop-the-world phases of each cycle
	allocMB float64 // heap growth between cycles
	lastMB  float64
}

// parseGCLine reads one gctrace line:
// "gc 7 @0.5s 2%: 0.01+1.2+0.02 ms clock, ..., 4->5->2 MB, ...".
func (g *gcTrace) parseGCLine(line string) {
	f := strings.Fields(line)
	if len(f) < 5 || f[0] != "gc" {
		return
	}
	for i, tok := range f {
		if tok == "clock," && i > 1 && f[i-1] == "ms" {
			parts := strings.Split(f[i-2], "+")
			if len(parts) == 3 {
				a, _ := strconv.ParseFloat(parts[0], 64)
				c, _ := strconv.ParseFloat(parts[2], 64)
				g.pauseMS += a + c
			}
		}
		if tok == "MB," && i > 0 {
			heap := strings.Split(f[i-1], "->")
			if len(heap) == 3 {
				start, _ := strconv.ParseFloat(heap[0], 64)
				live, _ := strconv.ParseFloat(heap[2], 64)
				if start > g.lastMB {
					g.allocMB += start - g.lastMB
				}
				g.lastMB = live
			}
		}
	}
	g.cycles++
}

func startDaemon(flowd, cache string, gctrace bool) (*daemon, error) {
	cmd := exec.Command(flowd, "-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(runtime.NumCPU()), "-cache", cache)
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start flowd: %w", err)
	}
	d := &daemon{cmd: cmd, cache: cache, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "gc ") {
				d.gcMu.Lock()
				d.gc.parseGCLine(line)
				d.gcMu.Unlock()
				continue
			}
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
			fmt.Fprintln(os.Stderr, line)
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		d.addr = a
		return d, nil
	case <-d.done:
		d.stop()
		return nil, errors.New("flowd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("flowd did not start listening within 30s")
	}
}

func (d *daemon) gcTotals() gcTrace {
	d.gcMu.Lock()
	defer d.gcMu.Unlock()
	return d.gc
}

// cpuSeconds reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// stop drains the daemon (SIGTERM) and returns its peak RSS in MB.
func (d *daemon) stop() (float64, error) {
	if d.exited {
		return 0, nil
	}
	d.exited = true
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(60*time.Second, func() { _ = d.cmd.Process.Kill() })
	<-d.done // stderr reaches EOF when the process exits
	err := d.cmd.Wait()
	kill.Stop()
	var rss float64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return rss, fmt.Errorf("flowd exit: %w", err)
	}
	return rss, nil
}

// warm is one set-up: a daemon start plus the four cold OPENs that
// build its snapshots.
func warm(flowd, cache string, gctrace bool) (*daemon, error) {
	d, err := startDaemon(flowd, cache, gctrace)
	if err != nil {
		return nil, err
	}
	for i := range serveSnapshots {
		cl, err := serve.Dial(d.addr)
		if err == nil {
			_, err = cl.Open(openRequest(i), nil)
			cl.Close()
		}
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("cold open %d: %w", i, err)
		}
	}
	return d, nil
}

// serveLimits are the workload's SLO constants.
type serveLimits struct {
	rate             float64 // sessions/s
	firstMS, roundMS float64
	seconds          float64
	connections      int
	seed             int64
}

// sessionRecord is one session's outcome.
type sessionRecord struct {
	plan     sessionPlan
	lateMS   float64
	firstMS  float64
	roundsMS []float64
	endAt    time.Duration
	err      error
	refused  bool
	last     serve.TimingResult
	muts     []serve.Mutation // every applied mutation, for the offline check
	ops      map[string][]float64
}

func (r *sessionRecord) met(l serveLimits) bool {
	if r.err != nil || r.firstMS > l.firstMS {
		return false
	}
	for _, x := range r.roundsMS {
		if x > l.roundMS {
			return false
		}
	}
	return true
}

// runSession runs one session's life against the daemon: dial, OPEN,
// serveRounds rounds, CLOS. Every duration is measured by the client.
func runSession(addr string, p sessionPlan, dueAt time.Time, rec *recorder) *sessionRecord {
	r := &sessionRecord{plan: p, ops: map[string][]float64{}}
	run := "session/" + strconv.Itoa(p.Idx)
	top := -1
	if rec != nil {
		top = rec.begin("session", run, -1)
		defer rec.end(top)
	}
	op := func(name string, fn func() error) error {
		i := -1
		if rec != nil {
			i = rec.begin("serve."+name, run, top)
		}
		t0 := time.Now()
		err := fn()
		r.ops[name] = append(r.ops[name], ms(time.Since(t0)))
		if i >= 0 {
			rec.end(i)
		}
		return err
	}
	fail := func(what string, err error) *sessionRecord {
		r.err = fmt.Errorf("session %d: %s: %w", p.Idx, what, err)
		r.refused = errors.Is(err, serve.ErrBusy)
		return r
	}

	var cl *serve.Client
	if err := op("dial", func() (err error) { cl, err = serve.Dial(addr); return err }); err != nil {
		return fail("dial", err)
	}
	defer cl.Close()
	var info *serve.SessionInfo
	if err := op("open", func() (err error) { info, err = cl.Open(openRequest(p.Snap), nil); return err }); err != nil {
		return fail("open", err)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	hetero := serveSnapshots[p.Snap].config == core.ConfigHetero
	due := dueAt
	for round := 0; round < serveRounds; round++ {
		if muts := roundMutations(rng, round, info.Cells, hetero); muts != nil {
			if err := op("mutate", func() error { _, err := cl.Mutate(muts); return err }); err != nil {
				return fail("mutate", err)
			}
			r.muts = append(r.muts, muts...)
		}
		name := "timing_incr"
		if round == 0 {
			name = "timing_first"
		}
		var tr *serve.TimingResult
		if err := op(name, func() (err error) { tr, err = cl.Timing(); return err }); err != nil {
			return fail("timing", err)
		}
		r.last = *tr
		now := time.Now()
		if round == 0 {
			r.firstMS = ms(now.Sub(due))
		} else {
			r.roundsMS = append(r.roundsMS, ms(now.Sub(due)))
		}
		due = now // the next round is due as soon as this one answers
	}
	if err := op("close", cl.Close); err != nil {
		return fail("close", err)
	}
	return r
}

// openLoop runs the schedule against the daemon over at most
// `connections` concurrent connections. A session due while every
// connection is busy waits in the generator; that wait counts toward
// its first answer. Lateness is how far past its due time an idle
// worker actually started a session.
func openLoop(addr string, plans []sessionPlan, connections int, rec *recorder) ([]*sessionRecord, time.Duration) {
	queue := make(chan sessionPlan, len(plans)) // holds the whole schedule
	for _, p := range plans {
		queue <- p
	}
	close(queue)
	out := make([]*sessionRecord, len(plans))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range queue {
				dueAt := start.Add(p.Due)
				late := 0.0
				if wait := time.Until(dueAt); wait > 0 {
					time.Sleep(wait)
					late = ms(time.Since(dueAt))
				}
				r := runSession(addr, p, dueAt, rec)
				r.lateMS = late
				r.endAt = time.Since(start)
				out[p.Idx] = r
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// serveResult is the aggregate of one serve-whatif run.
type serveResult struct {
	setupS    []float64
	wallS     float64
	cpuS      float64
	rssMB     float64
	records   []*sessionRecord
	attempted int
	failed    int
	problems  []string
	layer     map[string]float64
	overheadS float64
}

// runServe is the serve-whatif workload: several warm-ups (the last
// daemon is kept), the open-loop phase, the offline checks, and (traced)
// the snapshot and kernel measurements.
func runServe(flowd, workdir string, l serveLimits, trace bool, traceOut string, prov provenance) (*serveResult, error) {
	res := &serveResult{layer: map[string]float64{}}
	var d *daemon
	reps := setupReps["serve-whatif"]
	for i := 0; i < reps; i++ {
		cache := filepath.Join(workdir, "cache"+strconv.Itoa(i))
		t0 := time.Now()
		dd, err := warm(flowd, cache, trace && i == reps-1)
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		if i < reps-1 {
			if _, err := dd.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(cache)
			continue
		}
		d = dd
	}
	defer d.stop()

	dur := time.Duration(l.seconds * float64(time.Second))
	plans := poissonSchedule(l.seed, l.rate, dur)
	var rec *recorder
	var gc0 gcTrace
	if trace {
		// Untraced first half, traced second half: the difference in
		// median session time is the tracing overhead.
		half := len(plans) / 2
		first := plans[:half]
		base, _ := openLoop(d.addr, first, l.connections, nil)
		second := rebase(plans[half:])
		rec = newRecorder(false)
		gc0 = d.gcTotals()
		c0 := d.cpuSeconds()
		recs, wall := openLoop(d.addr, second, l.connections, rec)
		res.cpuS = d.cpuSeconds() - c0
		res.wallS = wall.Seconds()
		res.records = append(base, recs...)
		res.overheadS = (median(sessionTimes(recs)) - median(sessionTimes(base))) / 1000
	} else {
		c0 := d.cpuSeconds()
		recs, wall := openLoop(d.addr, plans, l.connections, nil)
		res.cpuS = d.cpuSeconds() - c0
		res.wallS = wall.Seconds()
		res.records = recs
	}
	res.attempted = len(res.records)
	for _, r := range res.records {
		if r.err != nil {
			res.failed++
			if len(res.problems) < 5 {
				res.problems = append(res.problems, r.err.Error())
			}
		}
	}
	lates := make([]float64, len(res.records))
	for i, r := range res.records {
		lates[i] = r.lateMS
	}
	if late := quantile(lates, 99); late > l.roundMS {
		res.problems = append(res.problems, fmt.Sprintf(
			"invalid run: generator p99 lateness %.2f ms exceeds the round limit %.2f ms", late, l.roundMS))
	}
	res.layer["gen.late_p99_ms"] = quantile(lates, 99)

	// Offline check: rebuild sampled sessions from the cached snapshots.
	snaps, err := snapshotFiles(d.cache)
	if err != nil {
		return nil, err
	}
	srcs := map[designs.Name]*netlist.Design{}
	lib := cell.NewLibrary(tech.Variant12T())
	for _, r := range checkSample(res.records) {
		s := serveSnapshots[r.plan.Snap]
		if srcs[s.design] == nil {
			if srcs[s.design], err = designs.Generate(s.design, lib, designs.Params{Scale: serveScale, Seed: designSeed}); err != nil {
				return nil, err
			}
		}
		if err := offlineCheck(srcs[s.design], snaps[string(s.design)+"/"+string(s.config)], s.config, r); err != nil {
			res.failed++
			res.problems = append(res.problems, err.Error())
		}
	}
	if trace {
		serveLayers(res, rec, d, gc0, snaps)
		if traceOut != "" {
			if err := writeChromeTrace(traceOut, rec.snapshot(), prov); err != nil {
				return nil, err
			}
		}
	}
	rss, err := d.stop()
	if err != nil {
		return nil, err
	}
	res.rssMB = rss
	return res, nil
}

// rebase shifts a schedule tail so its first session is due at zero.
func rebase(plans []sessionPlan) []sessionPlan {
	out := make([]sessionPlan, len(plans))
	for i, p := range plans {
		p.Due -= plans[0].Due
		p.Idx = i
		out[i] = p
	}
	return out
}

// sessionTimes is each successful session's time from due to close, ms.
func sessionTimes(recs []*sessionRecord) []float64 {
	var out []float64
	for _, r := range recs {
		if r.err == nil {
			out = append(out, ms(r.endAt-r.plan.Due))
		}
	}
	return out
}

// checkSample picks up to serveChecks successful sessions, the first of
// each snapshot first.
func checkSample(recs []*sessionRecord) []*sessionRecord {
	var out []*sessionRecord
	seen := map[int]bool{}
	for _, r := range recs {
		if r.err == nil && !seen[r.plan.Snap] && len(out) < serveChecks {
			seen[r.plan.Snap] = true
			out = append(out, r)
		}
	}
	return out
}

// snapshotFiles maps design/config to the daemon's cached snapshot file,
// identified by each file's own header.
func snapshotFiles(dir string) (map[string]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.db"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string]string{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		design, config, _, err := core.DesignFileInfo(data)
		if err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", p, err)
		}
		out[design+"/"+config] = p
	}
	if len(out) != len(serveSnapshots) {
		return nil, fmt.Errorf("snapshot cache holds %d designs, want %d", len(out), len(serveSnapshots))
	}
	return out, nil
}

// loadSnapshot restores a cached snapshot offline exactly as the daemon
// does: the session's option recipe with LoadDesign and no stages run.
func loadSnapshot(src *netlist.Design, path string, cfg core.ConfigName) (*core.Result, error) {
	opt := core.DefaultOptions(serveClock)
	opt.Seed = designSeed
	opt.LoadDesign = path
	opt.StopAfter = serveBoundary
	return core.Run(context.Background(), src, cfg, opt)
}

// offlineCheck replays a session's mutation stream on its snapshot and
// compares a fresh sta.Analyze with the session's last TIMQ reply.
func offlineCheck(src *netlist.Design, path string, cfg core.ConfigName, r *sessionRecord) error {
	res, err := loadSnapshot(src, path, cfg)
	if err != nil {
		return fmt.Errorf("offline check, session %d: %w", r.plan.Idx, err)
	}
	for _, m := range r.muts {
		inst := res.Design.Instances[m.ID]
		switch m.Kind {
		case serve.MutSetLoc:
			inst.SetLoc(geom.Point{X: m.X, Y: m.Y})
		case serve.MutSetTier:
			inst.SetTier(tech.Tier(m.Tier))
		}
	}
	scfg, err := serve.TimingConfig(serveClock, cfg, res.Clock, 1)
	if err != nil {
		return err
	}
	want, err := sta.Analyze(res.Design, scfg)
	if err != nil {
		return fmt.Errorf("offline check, session %d: %w", r.plan.Idx, err)
	}
	if !serve.TimingOf(want).SameAnalysis(r.last) {
		return fmt.Errorf("offline check, session %d: last TIMQ %+v != offline %+v",
			r.plan.Idx, r.last, serve.TimingOf(want))
	}
	return nil
}

// serveLayers fills the per-layer metrics of a traced serve run: client
// op spans, engine counters from the replies, the daemon's GC trace, the
// snapshot database kernels and the timing/power/route kernels on each
// restored snapshot.
func serveLayers(res *serveResult, rec *recorder, d *daemon, gc0 gcTrace, snaps map[string]string) {
	srcs := map[designs.Name]*netlist.Design{}
	ops := map[string][]float64{}
	for _, r := range res.records {
		for k, v := range r.ops {
			ops[k] = append(ops[k], v...)
		}
		if r.refused {
			res.layer["serve.busy_refusals"]++
		}
		if r.err == nil {
			res.layer["serve.timer_full"] += float64(r.last.FullUpdates)
			res.layer["serve.timer_incr"] += float64(r.last.IncrementalUpdates)
			res.layer["sta.nodes"] += float64(r.last.NodesReevaluated)
		}
	}
	for _, name := range []string{"dial", "open", "mutate", "timing_first", "timing_incr", "close"} {
		res.layer["serve."+name+"_ms.p50"] = quantile(ops[name], 50)
		res.layer["serve."+name+"_ms.p99"] = quantile(ops[name], 99)
	}
	gc := d.gcTotals()
	res.layer["gc.cycles"] = float64(gc.cycles - gc0.cycles)
	res.layer["gc.pause_ms"] = gc.pauseMS - gc0.pauseMS
	res.layer["alloc_mb"] = gc.allocMB - gc0.allocMB

	var lib *cell.Library
	i := rec.begin("cell.library", "kernels", -1)
	lib = cell.NewLibrary(tech.Variant12T())
	res.layer["cell.library_ms"] = ms(rec.end(i))
	rep := &repResult{Layer: res.layer}
	for _, s := range serveSnapshots {
		path := snaps[string(s.design)+"/"+string(s.config)]
		data, err := os.ReadFile(path)
		if err != nil {
			res.problems = append(res.problems, err.Error())
			continue
		}
		res.layer["db.bytes"] += float64(len(data))
		i := rec.begin("db.verify", "kernels", -1)
		err = core.VerifyDesignFile(data)
		res.layer["db.verify_ms"] += ms(rec.end(i))
		if err != nil {
			res.problems = append(res.problems, err.Error())
		}
		src, ok := srcs[s.design]
		if !ok {
			i = rec.begin("designs.generate", "kernels", -1)
			src, err = designs.Generate(s.design, lib, designs.Params{Scale: serveScale, Seed: designSeed})
			res.layer["designs.generate_ms"] += ms(rec.end(i))
			if err != nil {
				res.problems = append(res.problems, err.Error())
				continue
			}
			srcs[s.design] = src
		}
		i = rec.begin("db.load", "kernels", -1)
		loaded, err := loadSnapshot(src, path, s.config)
		res.layer["db.load_ms"] += ms(rec.end(i))
		if err != nil {
			res.problems = append(res.problems, err.Error())
			continue
		}
		// A session analyses with serve.TimingConfig, so its kernels do too.
		scfg, err := serve.TimingConfig(serveClock, s.config, loaded.Clock, 1)
		if err != nil {
			res.problems = append(res.problems, err.Error())
			continue
		}
		kernelCalls(rec, rep, loaded, s.config, serveClock, scfg)
	}
	res.problems = append(res.problems, rep.Problems...)
}
