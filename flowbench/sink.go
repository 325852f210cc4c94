package main

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
)

// flowSink is the benchmark's flow.Sink/eval.EventSink: it turns the
// pipeline's stage events into spans (one "flow" or "fmax-probe" span per
// flow run, one "stage.<name>" child per stage), sums the engine counters
// each stage reports, and times each design's f_max search. Safe for
// concurrent use.
type flowSink struct {
	rec    *recorder
	parent int // enclosing span (the suite), -1 for none
	// probesFirst marks 2D-12T flows of a design as f_max probes until
	// the design's FmaxDone (the suite's search runs before its configs).
	probesFirst bool

	mu       sync.Mutex
	open     map[string]*openFlow
	probes   map[string]int
	fmaxDone map[string]bool
	started  map[string]time.Duration // design → first stage start
	stats    map[string]int64
	fmaxMS   float64
}

type openFlow struct {
	run   string
	span  int
	stage int
}

func newFlowSink(rec *recorder, parent int, probesFirst bool) *flowSink {
	return &flowSink{
		rec: rec, parent: parent, probesFirst: probesFirst,
		open:     map[string]*openFlow{},
		probes:   map[string]int{},
		fmaxDone: map[string]bool{},
		started:  map[string]time.Duration{},
		stats:    map[string]int64{},
	}
}

// StageStart implements flow.Sink.
func (s *flowSink) StageStart(design, config, stage string) {
	key := design + "/" + config
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.started[design]; !ok {
		s.started[design] = time.Since(s.rec.epoch)
	}
	f := s.open[key]
	if f == nil {
		name, run := "flow", key
		if s.probesFirst && config == string(core.Config2D12T) && !s.fmaxDone[design] {
			name = "fmax-probe"
			run = key + "/fmax" + strconv.Itoa(s.probes[design])
			s.probes[design]++
		}
		f = &openFlow{run: run, span: s.rec.begin(name, run, s.parent)}
		s.open[key] = f
	}
	f.stage = s.rec.begin("stage."+stage, f.run, f.span)
}

// StageDone implements flow.Sink. A flow's span closes with its signoff
// stage or with its first failed stage.
func (s *flowSink) StageDone(design, config, stage string, m flow.StageMetric, err error) {
	key := design + "/" + config
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.open[key]
	if f == nil {
		return
	}
	s.rec.end(f.stage)
	for k, v := range m.Stats {
		s.stats[k] += v
	}
	if stage == core.StageSignoff || err != nil {
		s.rec.end(f.span)
		delete(s.open, key)
	}
}

// FmaxDone implements eval.EventSink.
func (s *flowSink) FmaxDone(design string, cells int, fmaxGHz float64) {
	now := time.Since(s.rec.epoch)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fmaxDone[design] = true
	s.fmaxMS += ms(now - s.started[design])
}

// ConfigDone implements eval.EventSink.
func (s *flowSink) ConfigDone(design string, config core.ConfigName, p *core.PPAC) {}

func (s *flowSink) counters() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.stats))
	for k, v := range s.stats {
		out[k] = v
	}
	return out
}
