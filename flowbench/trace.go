package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the benchmark observed around a call into
// a layer. Parent is the index of the enclosing span (-1 for a root);
// Run groups the spans of one flow (design/config) or one session.
type span struct {
	Name       string
	Run        string
	Parent     int
	Start, End time.Duration // offsets from the recorder's epoch
	// AllocBytes and GCCycles are the process-wide heap allocation and
	// completed GC cycles during the span, read from runtime/metrics
	// (traced runs only; 0 otherwise).
	AllocBytes, GCCycles uint64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. Safe for
// concurrent use.
type recorder struct {
	epoch time.Time
	// alloc enables runtime/metrics reads at span boundaries.
	alloc bool

	mu     sync.Mutex
	spans  []span
	starts []runtimeCounters // counters at each span's start
}

func newRecorder(alloc bool) *recorder {
	return &recorder{epoch: time.Now(), alloc: alloc}
}

// begin opens a span and returns its index.
func (r *recorder) begin(name, run string, parent int) int {
	c := r.counters()
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Run: run, Parent: parent, Start: now, End: -1})
	r.starts = append(r.starts, c)
	return len(r.spans) - 1
}

// end closes span i and returns its duration.
func (r *recorder) end(i int) time.Duration {
	now := time.Since(r.epoch)
	c := r.counters()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[i]
	s.End = now
	s.AllocBytes = c.allocBytes - r.starts[i].allocBytes
	s.GCCycles = c.gcCycles - r.starts[i].gcCycles
	return s.dur()
}

// time runs fn inside a span and returns fn's error.
func (r *recorder) time(name, run string, parent int, fn func() error) error {
	i := r.begin(name, run, parent)
	defer r.end(i)
	return fn()
}

// snapshot returns a copy of every span recorded so far; spans still
// open carry End = -1.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

type runtimeCounters struct {
	allocBytes, gcCycles uint64
}

// counters reads the runtime's cumulative allocation and GC-cycle
// counters (zero when the recorder does not track them).
func (r *recorder) counters() runtimeCounters {
	if !r.alloc {
		return runtimeCounters{}
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var c runtimeCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.gcCycles = s[1].Value.Uint64()
	}
	return c
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Children may overlap each other (concurrent flows under one suite
// span); overlapping coverage is counted once. Open spans get 0.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			cs := spans[c]
			if cs.End < 0 {
				continue
			}
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		out[i] = s.dur() - unionLength(ivs)
	}
	return out
}

// unionLength is the total length covered by a set of intervals.
func unionLength(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
			continue
		}
		if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanTotal sums the closed spans of one name, in ms and MB.
type spanTotal struct {
	Count   int
	TotalMS float64
	SelfMS  float64
	AllocMB float64
	MaxMS   float64
}

func totalsByName(spans []span) map[string]*spanTotal {
	self := selfTimes(spans)
	out := make(map[string]*spanTotal)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		t := out[s.Name]
		if t == nil {
			t = &spanTotal{}
			out[s.Name] = t
		}
		d := ms(s.dur())
		t.Count++
		t.TotalMS += d
		t.SelfMS += ms(self[i])
		t.AllocMB += float64(s.AllocBytes) / (1 << 20)
		if d > t.MaxMS {
			t.MaxMS = d
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans as a trace-event JSON file: one
// thread row per run id (flow or session), with self time and parent in
// each event's args, and the run's provenance as trace metadata.
func writeChromeTrace(path string, spans []span, meta provenance) error {
	self := selfTimes(spans)
	tids := map[string]int{}
	var events []chromeEvent
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		tid, ok := tids[s.Run]
		if !ok {
			tid = len(tids) + 1
			tids[s.Run] = tid
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": s.Run},
			})
		}
		args := map[string]any{
			"run":     s.Run,
			"parent":  s.Parent,
			"self_us": float64(self[i]) / 1e3,
		}
		if s.AllocBytes > 0 {
			args["alloc_bytes"] = s.AllocBytes
			args["gc_cycles"] = s.GCCycles
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "flowbench", Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: tid, Args: args,
		})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
