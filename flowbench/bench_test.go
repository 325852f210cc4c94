package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		p    float64
		n    int
		want bool
	}{
		{95, 199, false}, {95, 200, true},
		{99, 999, false}, {99, 1000, true},
		{50, 19, false}, {50, 20, true},
		{50, 0, false},
	}
	for _, c := range cases {
		if got := tailSupported(c.p, c.n); got != c.want {
			t.Errorf("tailSupported(%v, %d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
	for n, want := range map[int]int{0: 0, 11: 0, 20: 50, 100: 90, 200: 95, 1000: 99, 5000: 99} {
		if got := highestTail(n); got != want {
			t.Errorf("highestTail(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100, 0.5: 1} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 50)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{Name: "suite", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(50)},
		{Name: "b", Parent: 0, Start: ms(30), End: ms(70)},  // overlaps a
		{Name: "c", Parent: 0, Start: ms(90), End: ms(120)}, // runs past the parent
		{Name: "a1", Parent: 1, Start: ms(20), End: ms(25)},
		{Name: "open", Parent: 0, Start: ms(75), End: -1}, // never closed
	}
	self := selfTimes(spans)
	// Children cover [10,70] ∪ [90,100] = 70 ms of the parent's 100.
	want := []time.Duration{ms(30), ms(35), ms(40), ms(30), ms(5), 0}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	tot := totalsByName(spans)
	if tot["suite"].SelfMS != 30 || tot["suite"].TotalMS != 100 || tot["open"] != nil {
		t.Errorf("totalsByName: suite %+v, open %+v", tot["suite"], tot["open"])
	}
}

func TestStageUnion(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{Name: "flow", Parent: -1, Start: ms(5), End: ms(100)},
		{Name: "stage.map", Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "stage.place", Parent: 0, Start: ms(30), End: ms(60)}, // overlaps map
		{Name: "stage.cts", Parent: 0, Start: ms(80), End: ms(90)},
		{Name: "stage.signoff", Parent: 0, Start: ms(95), End: -1}, // never closed
	}
	// [10,60] ∪ [80,90]: the flow span itself and the open stage add nothing.
	if got := stageUnion(spans); got != ms(60) {
		t.Errorf("stageUnion = %v, want 60ms", got)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	dur := 20 * time.Second
	a := poissonSchedule(7, 16, dur)
	b := poissonSchedule(7, 16, dur)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := poissonSchedule(8, 16, dur)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := range a {
		if a[i].Due != c[i].Due {
			t.Fatalf("arrival %d due at %v and %v: the arrival trace must not depend on the seed", i, a[i].Due, c[i].Due)
		}
	}
	if len(a) != 320 {
		t.Fatalf("len = %d, want rate × seconds = 320", len(a))
	}
	for i, p := range a {
		if p.Idx != i || p.Due < 0 || p.Due >= dur || (i > 0 && p.Due < a[i-1].Due) {
			t.Fatalf("plan %d = %+v: want sorted due times in [0, %v)", i, p, dur)
		}
		if p.Snap < 0 || p.Snap >= len(serveSnapshots) {
			t.Fatalf("plan %d snapshot %d out of range", i, p.Snap)
		}
	}
	// Exponential gaps: the mean gap is close to 1/rate.
	mean := a[len(a)-1].Due.Seconds() / float64(len(a)-1)
	if mean < 0.8/16 || mean > 1.2/16 {
		t.Errorf("mean inter-arrival gap %.4fs, want about %.4fs", mean, 1.0/16)
	}
}

func TestRatiosCarryBases(t *testing.T) {
	hr := hitRate(3, 1)
	if hr.Value() != 0.75 || hr.Base != 4 {
		t.Errorf("hitRate(3, 1) = %v of %v, want 0.75 of 4", hr.Value(), hr.Base)
	}
	if z := hitRate(0, 0); z.Value() != 0 || z.Base != 0 {
		t.Errorf("hitRate(0, 0) = %v of %v, want 0 of 0", z.Value(), z.Base)
	}
	u := poolUtil(150, 100, 2)
	if u.Value() != 0.75 || u.Base != 200 {
		t.Errorf("poolUtil(150ms busy, 100ms wall, 2 workers) = %v of %v, want 0.75 of 200", u.Value(), u.Base)
	}
}

func TestParseGCTraceLine(t *testing.T) {
	var g gcTrace
	g.parseGCLine("gc 1 @0.012s 3%: 0.020+1.5+0.030 ms clock, 0.040+0.2/1.1/0+0.060 ms cpu, 4->5->2 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	g.parseGCLine("gc 2 @0.020s 3%: 0.010+1.0+0.040 ms clock, 0.02+0/1/0+0.08 ms cpu, 6->6->3 MB, 6 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	g.parseGCLine("flowd: listening")
	if g.cycles != 2 {
		t.Errorf("cycles = %d, want 2", g.cycles)
	}
	if math.Abs(g.pauseMS-0.1) > 1e-9 {
		t.Errorf("pause = %v ms, want 0.1", g.pauseMS)
	}
	// Heap grew 0→4 before the first cycle and 2→6 before the second.
	if g.allocMB != 8 {
		t.Errorf("alloc = %v MB, want 8", g.allocMB)
	}
}

func TestChromeTraceIsValid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	spans := []span{
		{Name: "flow", Run: "netcard/Hetero-M3D", Parent: -1, Start: 0, End: 10 * time.Millisecond},
		{Name: "stage.place", Run: "netcard/Hetero-M3D", Parent: 0, Start: time.Millisecond, End: 9 * time.Millisecond},
	}
	if err := writeChromeTrace(path, spans, provenance{Workload: "flow-netcard"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var complete int
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete++
			if e.Name == "flow" && e.Args["self_us"].(float64) != 2000 {
				t.Errorf("flow self time %v µs, want 2000", e.Args["self_us"])
			}
		}
	}
	if complete != 2 {
		t.Errorf("%d complete events, want 2", complete)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, program runs %v", names, workloads)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
