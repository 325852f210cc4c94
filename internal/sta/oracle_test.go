package sta

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/tech"
)

// oracle computes late-mode arrivals by memoised recursion over each
// instance's data-input drivers, straight from the netlist and the cell,
// tech and route delay models. It shares nothing with the engine — no
// graph, no order, no Timer state — so it sees every arc into a cell
// whatever order a levelizer would put them in.
type oracle struct {
	d   *netlist.Design
	cfg Config
	rc  []*route.NetRC // by net ID; nil for clock nets
	// arr, slew and delay hold each instance's output arrival, output
	// slew and stage delay once done[id] is set.
	arr, slew, delay []float64
	done             []bool
}

func newOracle(d *netlist.Design, cfg Config) *oracle {
	o := &oracle{
		d:     d,
		cfg:   cfg,
		rc:    make([]*route.NetRC, len(d.Nets)),
		arr:   make([]float64, len(d.Instances)),
		slew:  make([]float64, len(d.Instances)),
		delay: make([]float64, len(d.Instances)),
		done:  make([]bool, len(d.Instances)),
	}
	r := route.New()
	for _, n := range d.Nets {
		if !n.IsClock {
			o.rc[n.ID] = r.Extract(n)
		}
	}
	return o
}

// wire returns the Elmore delay from a net's driver to its k-th sink.
func (o *oracle) wire(n *netlist.Net, k int) float64 {
	rc := o.rc[n.ID]
	return tech.RCps(rc.SinkR[k], rc.SinkCapShare[k]+n.Sinks[k].Spec().Cap)
}

// arcArrival returns the arrival delivered at sink through every arc
// drv drives into it (the latest, when drv feeds several of its pins).
func (o *oracle) arcArrival(drv, sink *netlist.Instance) float64 {
	n := o.d.OutputNet(drv)
	a := math.Inf(-1)
	for k, s := range n.Sinks {
		if s.Inst == sink && s.Spec().Dir != cell.DirClk {
			a = math.Max(a, o.arrival(drv)+o.wire(n, k))
		}
	}
	return a
}

// arrival returns the instance's output arrival: clock latency plus
// clock-to-Q for a register or macro, otherwise the latest input arrival
// (0 at a port-driven input) plus the stage delay at the worst input
// slew.
func (o *oracle) arrival(inst *netlist.Instance) float64 {
	id := inst.ID
	if o.done[id] {
		return o.arr[id]
	}
	d, cfg := o.d, &o.cfg
	f := inst.Master.Function
	source := f.IsSequential() || f.IsMacro()
	in, inSlew := 0.0, cfg.InputSlew
	if !source {
		for i, pin := range inst.Master.Pins {
			if pin.Dir != cell.DirIn {
				continue
			}
			n := d.NetAt(inst, i)
			if n == nil || !n.Driver.Valid() || n.IsClock {
				continue
			}
			for k, s := range n.Sinks {
				if s.Inst != inst || s.Pin != i {
					continue
				}
				wd := o.wire(n, k)
				in = math.Max(in, o.arrival(n.Driver.Inst)+wd)
				inSlew = math.Max(inSlew, o.slew[n.Driver.Inst.ID]+wd)
			}
		}
	}
	out := d.OutputNet(inst)
	load := 0.0
	if out != nil {
		load = out.TotalPinCap()
		if rc := o.rc[out.ID]; rc != nil {
			load += rc.WireCap
		}
	}
	der := o.derate(inst, out)
	dl := inst.Master.Delay.Lookup(inSlew, load) * der.Delay
	o.slew[id] = inst.Master.OutSlew.Lookup(inSlew, load) * der.Slew
	if source && cfg.Latency != nil {
		in = cfg.Latency(inst)
	}
	o.delay[id] = dl
	o.arr[id] = in + dl
	o.done[id] = true
	return o.arr[id]
}

// derate is the boundary-cell derate of Sec. II-B: an output boundary
// when the cell's output net crosses tiers, then an input boundary when
// any non-clock input net's driver sits on the other tier.
func (o *oracle) derate(inst *netlist.Instance, out *netlist.Net) tech.Derate {
	der := tech.Unity()
	if !o.cfg.Hetero {
		return der
	}
	fast := inst.Master.Track == o.cfg.FastTrack
	if out != nil && out.CrossesTiers() {
		der = der.Compose(o.cfg.Derates.ForOutputBoundary(fast))
	}
	for i, pin := range inst.Master.Pins {
		if pin.Dir == cell.DirOut {
			continue
		}
		n := o.d.NetAt(inst, i)
		if n == nil || n.IsClock || !n.Driver.Valid() {
			continue
		}
		if n.Driver.Inst.Tier != inst.Tier {
			return der.Compose(o.cfg.Derates.ForInputBoundary(fast))
		}
	}
	return der
}

// setup returns the worst setup slack over every register/macro data
// pin and output port driven by an instance, and the number of such
// endpoints.
func (o *oracle) setup() (wns float64, endpoints int) {
	wns = math.Inf(1)
	lat := func(*netlist.Instance) float64 { return 0 }
	if o.cfg.Latency != nil {
		lat = o.cfg.Latency
	}
	for _, n := range o.d.Nets {
		if n.IsClock || !n.Driver.Valid() {
			continue
		}
		a := o.arrival(n.Driver.Inst)
		for k, s := range n.Sinks {
			f := s.Inst.Master.Function
			if s.Spec().Dir == cell.DirClk || !(f.IsSequential() || f.IsMacro()) {
				continue
			}
			endReq := o.cfg.Period + lat(s.Inst) - s.Inst.Master.Setup
			wns = math.Min(wns, endReq-(a+o.wire(n, k)))
			endpoints++
		}
		for pi, p := range n.SinkPorts {
			ri := len(n.Sinks) + pi
			rc := o.rc[n.ID]
			wd := tech.RCps(rc.SinkR[ri], rc.SinkCapShare[ri]+p.Cap)
			wns = math.Min(wns, o.cfg.Period-(a+wd))
			endpoints++
		}
	}
	return wns, endpoints
}

// shuffledDAG builds a random register-bounded design whose instances
// are added in random order, so a levelizer that leans on creation order
// sees drivers after their sinks. Gates read primary inputs, register
// outputs and earlier gates (fanout reconverges freely); registers
// capture from any gate, so they both launch and capture.
func shuffledDAG(t *testing.T, seed int64) *netlist.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := netlist.New("oracle")
	connect := func(inst *netlist.Instance, pin string, n *netlist.Net) {
		t.Helper()
		if err := d.Connect(inst, pin, n); err != nil {
			t.Fatal(err)
		}
	}
	clk, _ := d.AddNet("clk")
	clk.IsClock = true
	if _, err := d.AddPort("clk", cell.DirClk, clk); err != nil {
		t.Fatal(err)
	}

	nPI, nFF, nGate := 1+rng.Intn(3), 2+rng.Intn(4), 8+rng.Intn(40)
	gates := []cell.Function{cell.FuncInv, cell.FuncNand2, cell.FuncXor2, cell.FuncAoi21}
	masters := make([]*cell.Master, nFF+nGate)
	for i := range masters {
		lib := lib12
		if rng.Intn(3) == 0 {
			lib = lib9
		}
		if i < nFF {
			masters[i] = lib.Smallest(cell.FuncDFF)
		} else {
			masters[i] = lib.Smallest(gates[rng.Intn(len(gates))])
		}
	}
	insts := make([]*netlist.Instance, len(masters))
	for _, i := range rng.Perm(len(masters)) {
		inst, err := d.AddInstance("u"+itoa(i), masters[i])
		if err != nil {
			t.Fatal(err)
		}
		inst.Loc = geom.Pt(rng.Float64()*60, rng.Float64()*30)
		if rng.Intn(2) == 0 {
			inst.Tier = tech.TierTop
		}
		insts[i] = inst
	}

	// Signal nets in dependency order: primary inputs, register outputs,
	// then gate outputs, each gate reading only nets before its own.
	var nets []*netlist.Net
	for i := 0; i < nPI; i++ {
		n, _ := d.AddNet("pi" + itoa(i))
		if _, err := d.AddPort("pi"+itoa(i), cell.DirIn, n); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	for i := 0; i < nFF; i++ {
		q, _ := d.AddNet("q" + itoa(i))
		connect(insts[i], "Q", q)
		connect(insts[i], "CK", clk)
		nets = append(nets, q)
	}
	for i := nFF; i < len(insts); i++ {
		for _, p := range masters[i].Pins {
			if p.Dir != cell.DirIn {
				continue
			}
			// Favour recent nets for depth; any earlier net is legal.
			k := len(nets) - 1 - rng.Intn(min(len(nets), 6))
			if rng.Intn(3) == 0 {
				k = rng.Intn(len(nets))
			}
			connect(insts[i], p.Name, nets[k])
		}
		o, _ := d.AddNet("y" + itoa(i))
		connect(insts[i], masters[i].OutputPin(), o)
		nets = append(nets, o)
	}
	for i := 0; i < nFF; i++ {
		connect(insts[i], "D", nets[nPI+nFF+rng.Intn(nGate)])
	}
	for i := 0; i < 2; i++ {
		if _, err := d.AddPort("po"+itoa(i), cell.DirOut, nets[len(nets)-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// assertMatchesOracle checks every instance's arrival, slew and stage
// delay, and the setup summary, bit for bit against the oracle.
func assertMatchesOracle(t *testing.T, d *netlist.Design, res *Result) {
	t.Helper()
	o := newOracle(d, res.cfg)
	for _, inst := range d.Instances {
		id := inst.ID
		if want := o.arrival(inst); res.arrOut[id] != want {
			t.Fatalf("%s: arrival %v, oracle %v", inst.Name, res.arrOut[id], want)
		}
		if res.slewOut[id] != o.slew[id] || res.delay[id] != o.delay[id] {
			t.Fatalf("%s: slew/delay %v/%v, oracle %v/%v",
				inst.Name, res.slewOut[id], res.delay[id], o.slew[id], o.delay[id])
		}
	}
	wns, n := o.setup()
	if res.Endpoints != n {
		t.Fatalf("endpoints %d, oracle %d", res.Endpoints, n)
	}
	if n > 0 && res.WNS != wns {
		t.Fatalf("WNS %v, oracle %v", res.WNS, wns)
	}
}

// TestAnalyzeMatchesOracle holds Analyze to the recursion on random
// DAGs whose instance order puts drivers after their sinks.
func TestAnalyzeMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		d := shuffledDAG(t, seed)
		cfg := DefaultConfig(0.7)
		cfg.Hetero = seed%2 == 1
		res, err := Analyze(d, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Run("seed"+itoa(int(seed)), func(t *testing.T) {
			assertMatchesOracle(t, d, res)
		})
	}
}

// TestFlopAndChainFeedOneGate: a register and a four-inverter chain from
// a port both feed one AND2, and the AND2's arrival must come through
// the (slower) chain. Instances are ordered AND2, chain tail to head,
// register, so a levelizer that counted only combinational fanin would
// release the AND2 when the register pops, ahead of the chain's tail.
func TestFlopAndChainFeedOneGate(t *testing.T) {
	d := netlist.New("flopchain")
	connect := func(inst *netlist.Instance, pin string, n *netlist.Net) {
		t.Helper()
		if err := d.Connect(inst, pin, n); err != nil {
			t.Fatal(err)
		}
	}
	net := func(name string) *netlist.Net {
		n, err := d.AddNet(name)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	add := func(name string, f cell.Function, x float64) *netlist.Instance {
		inst, err := d.AddInstance(name, lib12.Smallest(f))
		if err != nil {
			t.Fatal(err)
		}
		inst.Loc = geom.Pt(x, 0)
		return inst
	}
	and2 := add("and2", cell.FuncAnd2, 100)
	inv := make([]*netlist.Instance, 4)
	for i := 3; i >= 0; i-- {
		inv[i] = add("inv"+itoa(i), cell.FuncInv, float64(i+1)*20)
	}
	ff := add("ff", cell.FuncDFF, 90)

	clk, in, dIn, y := net("clk"), net("in"), net("d"), net("y")
	clk.IsClock = true
	for _, p := range []struct {
		name string
		dir  cell.Dir
		n    *netlist.Net
	}{{"clk", cell.DirClk, clk}, {"in", cell.DirIn, in}, {"d", cell.DirIn, dIn}, {"y", cell.DirOut, y}} {
		if _, err := d.AddPort(p.name, p.dir, p.n); err != nil {
			t.Fatal(err)
		}
	}
	cur := in
	for i, g := range inv {
		connect(g, "A", cur)
		cur = net("n" + itoa(i))
		connect(g, "Y", cur)
	}
	q := net("q")
	connect(ff, "D", dIn)
	connect(ff, "CK", clk)
	connect(ff, "Q", q)
	connect(and2, "A", cur)
	connect(and2, "B", q)
	connect(and2, "Y", y)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(0.7)
	res, err := Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(d, res.cfg)
	chain, flop := o.arcArrival(inv[3], and2), o.arcArrival(ff, and2)
	if chain <= flop {
		t.Fatalf("fixture too weak: chain arc %v does not dominate register arc %v", chain, flop)
	}
	o.arrival(and2)
	if want := chain + o.delay[and2.ID]; res.ArrivalOut(and2) != want {
		t.Fatalf("AND2 arrival %v, want the chain path %v (register path alone: %v)",
			res.ArrivalOut(and2), want, flop+o.delay[and2.ID])
	}
	if res.pred[and2.ID] != int32(inv[3].ID) {
		t.Fatalf("AND2 worst predecessor %d, want the chain tail %d", res.pred[and2.ID], inv[3].ID)
	}
	assertMatchesOracle(t, d, res)
}
