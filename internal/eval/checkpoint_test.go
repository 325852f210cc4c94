package eval

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/designs"
	"repro/internal/flow"
)

func ckptOpts() SuiteOptions {
	opt := DefaultSuiteOptions(0.05)
	opt.FmaxIterations = 3
	return opt
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.ckpt")
	opt := ckptOpts()

	ck, err := OpenCheckpoint(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.CPU, 1234, 0.4375); err != nil {
		t.Fatal(err)
	}
	r := &core.Result{
		PPAC: &core.PPAC{Design: "cpu", Config: core.ConfigHetero, FreqGHz: 0.4375,
			PowerMW: 12.5, WNS: -0.031, WLm: 0.25},
		Stages:   []flow.StageMetric{{Name: "place", Cells: 1234, Stats: map[string]int64{flow.StatCongestionRetries: 1}}},
		Degraded: []string{flow.DegradeFullSTA},
	}
	if err := ck.PutFlow(designs.CPU, core.ConfigHetero, r); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	fmax, cells, ok := ck2.Fmax(designs.CPU)
	if !ok || fmax != 0.4375 || cells != 1234 {
		t.Errorf("fmax record = %v/%d/%v", fmax, cells, ok)
	}
	got, ok := ck2.Flow(designs.CPU, core.ConfigHetero)
	if !ok {
		t.Fatal("flow record missing after reopen")
	}
	if !got.Restored {
		t.Error("rehydrated result must be marked Restored")
	}
	if got.PPAC.PowerMW != 12.5 || got.PPAC.WNS != -0.031 {
		t.Errorf("PPAC floats did not round-trip: %+v", got.PPAC)
	}
	if len(got.Stages) != 1 || got.Stages[0].Stats[flow.StatCongestionRetries] != 1 {
		t.Errorf("stage metrics lost: %+v", got.Stages)
	}
	if len(got.Degraded) != 1 || got.Degraded[0] != flow.DegradeFullSTA {
		t.Errorf("degraded flags lost: %v", got.Degraded)
	}
	if got.Design != nil || got.Timing != nil {
		t.Error("restored result must not claim live design state")
	}
	if _, ok := ck2.Flow(designs.AES, core.ConfigHetero); ok {
		t.Error("phantom flow record")
	}
}

func TestCheckpointRefusesOptionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.ckpt")
	ck, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()

	bad := ckptOpts()
	bad.Seed = 99
	if _, err := OpenCheckpoint(path, bad); err == nil || !strings.Contains(err.Error(), "different suite options") {
		t.Errorf("seed mismatch must be refused, got %v", err)
	}
	narrower := ckptOpts()
	narrower.Designs = []designs.Name{designs.CPU}
	if _, err := OpenCheckpoint(path, narrower); err == nil {
		t.Error("design-list mismatch must be refused")
	}
}

// TestCheckpointToleratesTruncatedFinalLine: a kill mid-append leaves the
// leading half of a record frame after the last complete one. Open keeps
// the records before it, does not serve the half-written one, and drops
// the fragment from the file.
func TestCheckpointToleratesTruncatedFinalLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.ckpt")
	ck, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.AES, 99, 0.5); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The same journal with the flow record fully written supplies the
	// frame bytes the kill cut short.
	full := filepath.Join(dir, "full.ckpt")
	if err := os.WriteFile(full, intact, 0o644); err != nil {
		t.Fatal(err)
	}
	ckF, err := OpenCheckpoint(full, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ckF.PutFlow(designs.CPU, core.ConfigHetero, binaryFlowResult()); err != nil {
		t.Fatal(err)
	}
	ckF.Close()
	fullData, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	frame := fullData[len(intact):]
	if err := os.WriteFile(path, append(append([]byte{}, intact...), frame[:len(frame)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatalf("truncated final record must be tolerated: %v", err)
	}
	if _, _, ok := ck2.Fmax(designs.AES); !ok {
		t.Error("intact records before the truncation lost")
	}
	if _, ok := ck2.Flow(designs.CPU, core.ConfigHetero); ok {
		t.Error("the half-written record must not be served")
	}
	ck2.Close()
	if after, _ := os.ReadFile(path); !bytes.Equal(after, intact) {
		t.Errorf("journal is %d bytes after open, want the %d intact bytes", len(after), len(intact))
	}
}

// TestCheckpointResumeAfterTornTail is the kill-mid-append sequence a
// resumed worker goes through: a torn final frame is tolerated on open,
// and the records appended after it must still load on the next open.
// Appending after the partial bytes would make the next open read one
// "complete" frame spanning the fragment and the new record, fail its
// CRC, and refuse the whole journal.
func TestCheckpointResumeAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.ckpt")
	ck, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.AES, 99, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFlow(designs.CPU, core.ConfigHetero, binaryFlowResult()); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := len(data) - 7
	if err := os.WriteFile(path, data[:torn], 0o644); err != nil {
		t.Fatal(err)
	}
	ck2, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatalf("torn final frame must be tolerated: %v", err)
	}
	if err := ck2.PutFlow(designs.CPU, core.ConfigHetero, binaryFlowResult()); err != nil {
		t.Fatal(err)
	}
	ck2.Close()

	// The fragment is gone: the file is the original plus nothing more
	// than the re-appended flow frame, byte for byte.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Errorf("journal after torn-tail resume is %d bytes, want the %d-byte original", len(after), len(data))
	}

	ck3, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatalf("journal refused after appending past a torn tail: %v", err)
	}
	defer ck3.Close()
	if _, _, ok := ck3.Fmax(designs.AES); !ok {
		t.Error("record before the torn tail lost")
	}
	if _, ok := ck3.Flow(designs.CPU, core.ConfigHetero); !ok {
		t.Error("record appended after the torn tail lost")
	}
}

// TestCheckpointRejectsMidFileCorruption: a CRC-bad frame followed by
// intact frames is corruption, not a torn tail. The journal is refused
// and left byte-for-byte as it was for the post-mortem.
func TestCheckpointRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.ckpt")
	ck, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.AES, 99, 0.5); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.CPU, 1234, 0.4375); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit of the aes frame, which ends at fi.Size().
	data[fi.Size()-6] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path, ckptOpts()); !errors.Is(err, db.ErrCorrupt) {
		t.Errorf("corrupt frame followed by more frames must be refused as corrupt, got %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Error("refused journal was modified")
	}
}

// TestJSONLJournalRefused: the journal has one format. A line-oriented
// JSON journal (the retired format) is not an evaluation journal; every
// reader refuses it naming the path, and none treats it as fresh.
func TestJSONLJournalRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.jsonl")
	jsonl := []byte(`{"kind":"header","version":1,"scale":0.05,"seed":1}` + "\n" +
		`{"kind":"fmax","design":"cpu","cells":1234,"fmaxGHz":0.4375}` + "\n")
	if err := os.WriteFile(path, jsonl, 0o644); err != nil {
		t.Fatal(err)
	}
	opt := ckptOpts()
	_, err := OpenCheckpoint(path, opt)
	checkRefused(t, "OpenCheckpoint", err, path)
	_, _, _, err = JournalStatus(path, opt)
	checkRefused(t, "JournalStatus", err, path)
	err = MergeCheckpoints(filepath.Join(dir, "merged.ckpt"), opt, path)
	checkRefused(t, "MergeCheckpoints", err, path)
	if after, _ := os.ReadFile(path); !bytes.Equal(after, jsonl) {
		t.Error("refused JSONL journal was modified")
	}
}

func checkRefused(t *testing.T, who string, err error, path string) {
	t.Helper()
	if err == nil {
		t.Errorf("%s accepted a JSONL journal", who)
		return
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("%s error %q does not name the path", who, err)
	}
}

// killSink cancels the suite's context after n config completions — the
// "kill" half of the kill-and-resume proof.
type killSink struct {
	mu     sync.Mutex
	n      int
	cancel context.CancelFunc
}

func (k *killSink) StageStart(design, config, stage string)                             {}
func (k *killSink) StageDone(design, config, stage string, m flow.StageMetric, e error) {}
func (k *killSink) FmaxDone(design string, cells int, fmaxGHz float64)                  {}
func (k *killSink) ConfigDone(design string, config core.ConfigName, p *core.PPAC) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.n--
	if k.n == 0 {
		k.cancel()
	}
}

// TestKillAndResume is the tentpole acceptance test: a suite interrupted
// mid-run and resumed from its checkpoint renders Tables I–VIII
// byte-identical to an uninterrupted run.
func TestKillAndResume(t *testing.T) {
	ref := testSuite(t) // the uninterrupted reference (no checkpoint at all)
	path := filepath.Join(t.TempDir(), "suite.ckpt")

	// Phase 1: run with a checkpoint and kill after three flows finish.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := ckptOpts()
	opt.Checkpoint = path
	opt.Events = &killSink{n: 3, cancel: cancel}
	if _, err := RunSuite(ctx, opt); err == nil {
		t.Fatal("killed run should report an error")
	}
	probe, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	_, flows := probe.Completed()
	probe.Close()
	if flows < 3 {
		t.Fatalf("checkpoint holds %d flows after the kill, want >= 3", flows)
	}

	// Phase 2: resume with the same options.
	opt2 := ckptOpts()
	opt2.Checkpoint = path
	s, err := RunSuite(context.Background(), opt2)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}

	restored := 0
	for _, cfgs := range s.Health {
		for _, h := range cfgs {
			if h != nil && h.Restored {
				restored++
			}
		}
	}
	if restored < 3 {
		t.Errorf("resume restored %d flows, want >= 3", restored)
	}

	// The proof: every suite-derived table is byte-identical.
	if got, want := s.TableI().String(), ref.TableI().String(); got != want {
		t.Errorf("Table I diverged after resume:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}
	if got, want := s.TableVI().String(), ref.TableVI().String(); got != want {
		t.Errorf("Table VI diverged after resume:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}
	if got, want := s.TableVII().String(), ref.TableVII().String(); got != want {
		t.Errorf("Table VII diverged after resume:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}
	rt, err := s.TableVIII()
	if err != nil {
		t.Fatalf("Table VIII on resumed suite: %v", err)
	}
	wt, err := ref.TableVIII()
	if err != nil {
		t.Fatal(err)
	}
	if rt.String() != wt.String() {
		t.Errorf("Table VIII diverged after resume:\n--- resumed ---\n%s\n--- reference ---\n%s", rt.String(), wt.String())
	}

	// Tables II–V are suite-independent; spot-check one renders.
	if tb := TableIV(); !strings.Contains(tb.String(), "Die cost") {
		t.Error("Table IV broken on resumed process")
	}

	// Figures degrade gracefully on restored results instead of failing.
	if f3, err := s.Fig3(""); err != nil {
		t.Errorf("Fig3 on resumed suite: %v", err)
	} else if !strings.Contains(f3, "restored from checkpoint") && !strings.Contains(f3, "tier-1") {
		t.Errorf("Fig3 output unexpected:\n%s", f3)
	}

	// A third run with everything checkpointed runs zero flows and still
	// matches.
	opt3 := ckptOpts()
	opt3.Checkpoint = path
	s3, err := RunSuite(context.Background(), opt3)
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.TableVII().String(); got != ref.TableVII().String() {
		t.Error("fully-restored suite diverged")
	}
	for _, cfgs := range s3.Health {
		for _, h := range cfgs {
			if h == nil || !h.Restored {
				t.Fatal("fully-checkpointed suite should restore every flow")
			}
		}
	}
	if s3.ResilienceReport() == nil {
		t.Error("resilience report missing")
	}
}
