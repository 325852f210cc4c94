package sta

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/tech"
)

// analyzeReference runs full STA on the design in the push model.
func analyzeReference(d *netlist.Design, cfg Config) (*Result, error) {
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("sta: period %v must be positive", cfg.Period)
	}
	if cfg.Router == nil {
		cfg.Router = route.New()
	}
	if cfg.InputSlew <= 0 {
		cfg.InputSlew = 0.02
	}
	if cfg.Hetero && cfg.Derates == (tech.DerateModel{}) {
		cfg.Derates = tech.DefaultDerates()
	}
	if cfg.FastTrack == 0 {
		cfg.FastTrack = tech.Track12
	}
	g, err := buildGraph(d)
	if err != nil {
		return nil, err
	}
	ex := extractAll(d, cfg.Router, 1)

	n := len(d.Instances)
	res := &Result{
		cfg:    cfg,
		d:      d,
		arrOut: make([]float64, n),
		reqOut: make([]float64, n),
		delay:  make([]float64, n),
		inWire: make([]float64, n),
		pred:   make([]int32, n),
	}
	arrIn := make([]float64, n) // worst arrival at any input pin
	arrMinIn := make([]float64, n)
	arrMinOut := make([]float64, n)
	slewIn := make([]float64, n) // worst input slew
	res.slewOut = make([]float64, n)
	slewOut := res.slewOut
	for i := range arrIn {
		arrIn[i] = 0
		arrMinIn[i] = math.Inf(1)
		slewIn[i] = cfg.InputSlew
		res.pred[i] = -1
		res.reqOut[i] = math.Inf(1)
	}
	// Instances with a port-driven or floating signal input can switch as
	// early as t=0 on the min path.
	for _, inst := range d.Instances {
		for i, pin := range inst.Master.Pins {
			if pin.Dir != cell.DirIn {
				continue
			}
			nn := d.NetAt(inst, i)
			if nn == nil || nn.DriverPort != nil {
				arrMinIn[inst.ID] = 0
				break
			}
		}
	}

	lat := cfg.Latency
	if lat == nil {
		lat = func(*netlist.Instance) float64 { return 0 }
	}

	// ---------- Forward pass: arrivals and slews ----------
	for _, inst := range g.order {
		f := inst.Master.Function
		out := d.OutputNet(inst)

		var load float64
		var rc *route.NetRC
		if out != nil {
			rc = ex.rc[out.ID]
			if rc != nil {
				load = rc.WireCap + out.TotalPinCap()
			} else {
				load = out.TotalPinCap()
			}
		}

		var arr, arrMin, slw float64
		switch {
		case f.IsSequential() || f.IsMacro():
			// Launch: clock latency + CLK→Q (or access) delay.
			d0 := inst.Master.Delay.Lookup(cfg.InputSlew, load)
			s0 := inst.Master.OutSlew.Lookup(cfg.InputSlew, load)
			d0, s0 = res.applyDerates(inst, out, d, d0, s0)
			arr = lat(inst) + d0
			arrMin = arr
			slw = s0
			res.delay[inst.ID] = d0
		default:
			d0 := inst.Master.Delay.Lookup(slewIn[inst.ID], load)
			s0 := inst.Master.OutSlew.Lookup(slewIn[inst.ID], load)
			d0, s0 = res.applyDerates(inst, out, d, d0, s0)
			arr = arrIn[inst.ID] + d0
			am := arrMinIn[inst.ID]
			if math.IsInf(am, 1) {
				am = 0
			}
			arrMin = am + d0
			slw = s0
			res.delay[inst.ID] = d0
		}
		res.arrOut[inst.ID] = arr
		arrMinOut[inst.ID] = arrMin
		slewOut[inst.ID] = slw

		// Push to sinks.
		if out == nil || rc == nil {
			continue
		}
		for i, s := range out.Sinks {
			if s.Spec().Dir == cell.DirClk {
				continue
			}
			wd := tech.RCps(rc.SinkR[i], rc.SinkCapShare[i]+s.Spec().Cap)
			a := arr + wd
			sk := s.Inst.ID
			if a > arrIn[sk] {
				arrIn[sk] = a
				res.pred[sk] = int32(inst.ID)
				res.inWire[sk] = wd
			}
			if am := arrMin + wd; am < arrMinIn[sk] {
				arrMinIn[sk] = am
			}
			if sw := slw + wd; sw > slewIn[sk] {
				slewIn[sk] = sw
			}
		}
	}

	// ---------- Endpoint checks and backward required pass ----------
	// Process instances in reverse topological order, accumulating
	// required times through each net.
	for i := len(g.order) - 1; i >= 0; i-- {
		inst := g.order[i]
		out := d.OutputNet(inst)
		if out == nil {
			continue
		}
		rc := ex.rc[out.ID]
		if rc == nil {
			continue
		}
		req := math.Inf(1)
		si := 0
		for _, s := range out.Sinks {
			if s.Spec().Dir == cell.DirClk {
				si++
				continue
			}
			wd := tech.RCps(rc.SinkR[si], rc.SinkCapShare[si]+s.Spec().Cap)
			si++
			sk := s.Inst
			var cand float64
			switch {
			case sk.Master.Function.IsSequential() || sk.Master.Function.IsMacro():
				// Setup endpoint at the D/A pin, plus the hold check on
				// the earliest arrival.
				endReq := cfg.Period + lat(sk) - sk.Master.Setup
				arrD := res.arrOut[inst.ID] + wd
				slack := endReq - arrD
				holdSlack := arrMinOut[inst.ID] + wd - lat(sk) - sk.Master.Hold
				res.endSlack = append(res.endSlack, endpoint{inst: sk, from: int32(inst.ID), slack: slack, hold: holdSlack})
				cand = endReq - wd
			default:
				cand = res.reqOut[sk.ID] - res.delay[sk.ID] - wd
			}
			if cand < req {
				req = cand
			}
		}
		for pi, p := range out.SinkPorts {
			// Extract appends ports after every instance sink.
			ri := len(out.Sinks) + pi
			wd := tech.RCps(rc.SinkR[ri], rc.SinkCapShare[ri]+p.Cap)
			arrP := res.arrOut[inst.ID] + wd
			slack := cfg.Period - arrP
			res.endSlack = append(res.endSlack, endpoint{port: p, from: int32(inst.ID), slack: slack, hold: math.Inf(1)})
			if cand := cfg.Period - wd; cand < req {
				req = cand
			}
		}
		if req < res.reqOut[inst.ID] {
			res.reqOut[inst.ID] = req
		}
	}

	// ---------- Summaries ----------
	res.WNS = math.Inf(1)
	res.HoldWNS = math.Inf(1)
	for _, e := range res.endSlack {
		res.Endpoints++
		if e.slack < res.WNS {
			res.WNS = e.slack
		}
		if e.slack < 0 {
			res.FailingEndpoints++
			res.TNS += e.slack
		}
		if e.hold < res.HoldWNS {
			res.HoldWNS = e.hold
		}
		if e.hold < 0 {
			res.FailingHoldEndpoints++
			res.HoldTNS += e.hold
		}
	}
	if res.Endpoints == 0 {
		res.WNS = 0 // unconstrained design
	}
	if math.IsInf(res.HoldWNS, 1) {
		res.HoldWNS = 0 // no registered endpoints
	}
	return res, nil
}

// TestAnalyzeMatchesSeedReference pits the replay-based engine against a
// push-based Analyze: one sweep over the levelized order that pushes each
// driver's arrival to its sinks. It shares buildGraph with the engine, so
// it checks the sweeps, not the order; oracle_test.go checks the order.
func TestAnalyzeMatchesSeedReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		d := randomDAG(t, seed)
		for i, inst := range d.Instances {
			if i%3 == 0 {
				inst.Tier = tech.TierTop
			}
		}
		cfg := DefaultConfig(0.7)
		cfg.Hetero = seed%2 == 1
		want, err := analyzeReference(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Analyze(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range d.Instances {
			id := inst.ID
			if got.arrOut[id] != want.arrOut[id] || got.reqOut[id] != want.reqOut[id] ||
				got.delay[id] != want.delay[id] || got.slewOut[id] != want.slewOut[id] {
				t.Fatalf("seed %d: inst %s: got arr/req/delay/slew %v/%v/%v/%v want %v/%v/%v/%v",
					seed, inst.Name, got.arrOut[id], got.reqOut[id], got.delay[id], got.slewOut[id],
					want.arrOut[id], want.reqOut[id], want.delay[id], want.slewOut[id])
			}
			f := inst.Master.Function
			if !(f.IsSequential() || f.IsMacro()) {
				if got.pred[id] != want.pred[id] || got.inWire[id] != want.inWire[id] {
					t.Fatalf("seed %d: inst %s: pred/inWire %d/%v want %d/%v",
						seed, inst.Name, got.pred[id], got.inWire[id], want.pred[id], want.inWire[id])
				}
			}
		}
		if got.WNS != want.WNS || got.TNS != want.TNS || got.HoldWNS != want.HoldWNS || got.HoldTNS != want.HoldTNS {
			t.Fatalf("seed %d: summaries differ: %v/%v/%v/%v vs %v/%v/%v/%v", seed,
				got.WNS, got.TNS, got.HoldWNS, got.HoldTNS, want.WNS, want.TNS, want.HoldWNS, want.HoldTNS)
		}
		if len(got.endSlack) != len(want.endSlack) {
			t.Fatalf("seed %d: endSlack %d vs %d", seed, len(got.endSlack), len(want.endSlack))
		}
		for i := range got.endSlack {
			if got.endSlack[i] != want.endSlack[i] {
				t.Fatalf("seed %d: endSlack[%d] %+v vs %+v", seed, i, got.endSlack[i], want.endSlack[i])
			}
		}
	}
}
