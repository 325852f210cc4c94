package netlist

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/geom"
)

// validateScan is the reference Validate: the original algorithm, which
// scans the bound net's whole sink list for every input pin. The linear
// Validate must accept and reject exactly the designs it does, with the
// same error text.
func validateScan(d *Design) error {
	for _, n := range d.Nets {
		drivers := 0
		if n.Driver.Valid() {
			drivers++
			if n.Driver.Inst.nets[n.Driver.Pin] != n {
				return fmt.Errorf("netlist: net %q driver binding mismatch", n.Name)
			}
		}
		if n.DriverPort != nil {
			drivers++
		}
		if drivers == 0 && n.Degree() > 0 {
			return fmt.Errorf("netlist: net %q has sinks but no driver", n.Name)
		}
		if drivers > 1 {
			return fmt.Errorf("netlist: net %q has multiple drivers", n.Name)
		}
		for _, s := range n.Sinks {
			if !s.Valid() {
				return fmt.Errorf("netlist: net %q has invalid sink ref", n.Name)
			}
			if s.Inst.nets[s.Pin] != n {
				return fmt.Errorf("netlist: net %q sink %s binding mismatch", n.Name, s.Inst.Name)
			}
			if s.Spec().Dir == cell.DirOut {
				return fmt.Errorf("netlist: net %q lists output pin of %s as sink", n.Name, s.Inst.Name)
			}
		}
	}
	for _, inst := range d.Instances {
		for i, n := range inst.nets {
			if n == nil {
				continue
			}
			spec := inst.Master.Pins[i]
			ref := PinRef{Inst: inst, Pin: i}
			if spec.Dir == cell.DirOut {
				if n.Driver != ref {
					return fmt.Errorf("netlist: instance %s output not the driver of %q", inst.Name, n.Name)
				}
				continue
			}
			found := false
			for _, s := range n.Sinks {
				if s == ref {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("netlist: instance %s pin %s not listed on net %q", inst.Name, spec.Name, n.Name)
			}
		}
	}
	return nil
}

// randomDesign builds a valid design of a few dozen cells: every cell
// drives its own net, input pins land on random nets (about one in ten
// is left unconnected), and flops are clocked from a port-driven clock.
// Connection order is shuffled so sink lists come in random order.
func randomDesign(t testing.TB, rng *rand.Rand) *Design {
	t.Helper()
	masters := []*cell.Master{
		lib12.Smallest(cell.FuncInv), lib12.Smallest(cell.FuncBuf),
		lib12.Smallest(cell.FuncNand2), lib12.Smallest(cell.FuncDFF),
	}
	d := New("rand")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	clk, err := d.AddNet("clk")
	must(err)
	clk.IsClock = true
	_, err = d.AddPort("clk", cell.DirIn, clk)
	must(err)
	for i := 0; i < 3; i++ {
		n, err := d.AddNet(fmt.Sprintf("in%d", i))
		must(err)
		_, err = d.AddPort(n.Name, cell.DirIn, n)
		must(err)
	}
	cells := 8 + rng.Intn(32)
	for i := 0; i < cells; i++ {
		inst, err := d.AddInstance(fmt.Sprintf("u%d", i), masters[rng.Intn(len(masters))])
		must(err)
		inst.Loc = geom.Pt(float64(rng.Intn(100)), float64(rng.Intn(100)))
		n, err := d.AddNet(fmt.Sprintf("n%d", i))
		must(err)
		must(d.Connect(inst, inst.Master.Pins[inst.outPin].Name, n))
	}
	var pins []PinRef
	for _, inst := range d.Instances {
		for i, p := range inst.Master.Pins {
			if p.Dir != cell.DirOut {
				pins = append(pins, PinRef{Inst: inst, Pin: i})
			}
		}
	}
	rng.Shuffle(len(pins), func(i, j int) { pins[i], pins[j] = pins[j], pins[i] })
	for _, p := range pins {
		spec := p.Spec()
		switch {
		case spec.Dir == cell.DirClk:
			must(d.Connect(p.Inst, spec.Name, clk))
		case rng.Intn(10) > 0:
			must(d.Connect(p.Inst, spec.Name, d.Nets[1+rng.Intn(len(d.Nets)-1)]))
		}
	}
	for i := 0; i < 2; i++ {
		_, err := d.AddPort(fmt.Sprintf("out%d", i), cell.DirOut, d.Nets[4+rng.Intn(cells)])
		must(err)
	}
	must(d.Validate())
	return d
}

// corrupt applies one random structural corruption to d.
func corrupt(d *Design, rng *rand.Rand) string {
	randNet := func() *Net { return d.Nets[rng.Intn(len(d.Nets))] }
	randInst := func() *Instance { return d.Instances[rng.Intn(len(d.Instances))] }
	withSinks := func() *Net {
		for {
			if n := randNet(); len(n.Sinks) > 0 {
				return n
			}
		}
	}
	switch k := rng.Intn(8); k {
	case 0: // a dropped sink entry
		n := withSinks()
		i := rng.Intn(len(n.Sinks))
		n.Sinks = append(n.Sinks[:i:i], n.Sinks[i+1:]...)
		return "drop"
	case 1: // a pin rebound to another net, still listed on the old one
		s := withSinks().Sinks
		if p := s[rng.Intn(len(s))]; p.Valid() {
			p.Inst.nets[p.Pin] = randNet()
		}
		return "rebind"
	case 2: // an output listed as a sink
		inst := randInst()
		n := randNet()
		n.Sinks = append(n.Sinks, PinRef{Inst: inst, Pin: int(inst.outPin)})
		return "output"
	case 3: // a sink on an instance the design does not own
		n := randNet()
		foreign := &Instance{
			ID: rng.Intn(len(d.Instances) + 2), Name: "foreign",
			Master: lib12.Smallest(cell.FuncInv), nets: []*Net{n, nil},
		}
		n.Sinks = append(n.Sinks, PinRef{Inst: foreign, Pin: 0})
		return "foreign"
	case 4: // two drivers
		n := d.Nets[4+rng.Intn(len(d.Nets)-4)]
		n.DriverPort = &Port{Name: "extra", Dir: cell.DirIn, Net: n}
		return "drivers"
	case 5: // an instance ID that is not its position
		randInst().ID = rng.Intn(len(d.Instances)+2) - 1
		return "id"
	case 6: // a duplicated sink entry
		n := withSinks()
		n.Sinks = append(n.Sinks, n.Sinks[rng.Intn(len(n.Sinks))])
		return "dup"
	default: // an invalid sink entry
		n := randNet()
		n.Sinks = append(n.Sinks, PinRef{})
		return "invalid"
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func TestValidateMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	accepted, rejected := 0, 0
	for trial := 0; trial < 2000; trial++ {
		d := randomDesign(t, rng)
		var applied []string
		for c := rng.Intn(3); c > 0; c-- {
			applied = append(applied, corrupt(d, rng))
		}
		want, got := validateScan(d), d.Validate()
		if errText(got) != errText(want) {
			t.Fatalf("trial %d corruptions %v: Validate = %s, scan = %s", trial, applied, errText(got), errText(want))
		}
		if want == nil {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted < 100 || rejected < 100 {
		t.Errorf("weak coverage: %d accepted, %d rejected", accepted, rejected)
	}
}

// structCounter counts ChangeStructure notifications.
type structCounter int

func (c *structCounter) DesignChanged(ch Change) {
	if ch.Kind == ChangeStructure {
		*c++
	}
}

// randomBatch draws pin refs by (instance, pin) index: real pins, half of
// them picked off a net's sink list so that corrupted entries (repeated,
// or listed on a net the pin is not bound to) get detached; some unbound
// or repeated refs; a few invalid ones (no instance, or a pin index past
// the master's pins).
func randomBatch(rng *rand.Rand, d *Design) [][2]int {
	position := make(map[*Instance]int, len(d.Instances))
	for i, inst := range d.Instances {
		position[inst] = i
	}
	var b [][2]int
	for k := 1 + rng.Intn(12); k > 0; k-- {
		inst := rng.Intn(len(d.Instances))
		switch r := rng.Intn(100); {
		case r < 2:
			b = append(b, [2]int{-1, 0})
		case r < 4:
			b = append(b, [2]int{inst, len(d.Instances[inst].Master.Pins)})
		case r < 10 && len(b) > 0:
			b = append(b, b[rng.Intn(len(b))])
		case r < 55:
			if n := d.Nets[rng.Intn(len(d.Nets))]; len(n.Sinks) > 0 {
				s := n.Sinks[rng.Intn(len(n.Sinks))]
				if i, ok := position[s.Inst]; ok {
					b = append(b, [2]int{i, s.Pin})
				}
			}
		default:
			b = append(b, [2]int{inst, rng.Intn(len(d.Instances[inst].Master.Pins))})
		}
	}
	if len(b) == 0 {
		b = append(b, [2]int{-1, 0})
	}
	return b
}

func refsOf(d *Design, idx [][2]int) []PinRef {
	refs := make([]PinRef, len(idx))
	for i, p := range idx {
		if p[0] >= 0 {
			refs[i] = PinRef{Inst: d.Instances[p[0]], Pin: p[1]}
		}
	}
	return refs
}

// sameState reports the first difference between two designs built
// alike: pin bindings, drivers, sink order, and every revision.
func sameState(a, b *Design) string {
	name := func(p PinRef) string {
		if p.Inst == nil {
			return "-"
		}
		return fmt.Sprintf("%s/%d", p.Inst.Name, p.Pin)
	}
	netName := func(n *Net) string {
		if n == nil {
			return "-"
		}
		return n.Name
	}
	for i, na := range a.Nets {
		nb := b.Nets[i]
		if name(na.Driver) != name(nb.Driver) {
			return fmt.Sprintf("net %s driver %s vs %s", na.Name, name(na.Driver), name(nb.Driver))
		}
		sa, sb := fmt.Sprint(len(na.Sinks)), fmt.Sprint(len(nb.Sinks))
		for j := range na.Sinks {
			sa += " " + name(na.Sinks[j])
		}
		for j := range nb.Sinks {
			sb += " " + name(nb.Sinks[j])
		}
		if sa != sb {
			return fmt.Sprintf("net %s sinks [%s] vs [%s]", na.Name, sa, sb)
		}
		if a.NetRev(na) != b.NetRev(nb) {
			return fmt.Sprintf("net %s rev %d vs %d", na.Name, a.NetRev(na), b.NetRev(nb))
		}
	}
	for i, ia := range a.Instances {
		ib := b.Instances[i]
		for p := range ia.nets {
			if netName(ia.nets[p]) != netName(ib.nets[p]) {
				return fmt.Sprintf("pin %s/%d bound to %s vs %s", ia.Name, p, netName(ia.nets[p]), netName(ib.nets[p]))
			}
		}
	}
	if fmt.Sprint(a.jn.instRev) != fmt.Sprint(b.jn.instRev) {
		return "instance revisions differ"
	}
	if a.TopoRev() != b.TopoRev() || a.jn.maxTopo != b.jn.maxTopo {
		return fmt.Sprintf("topo rev %d/%d vs %d/%d", a.TopoRev(), a.jn.maxTopo, b.TopoRev(), b.jn.maxTopo)
	}
	return ""
}

// disconnectScan is the reference single-pin Disconnect: the original
// algorithm, which splices the ref out of its net's sink slice.
func disconnectScan(d *Design, ref PinRef) error {
	if !ref.Valid() {
		return fmt.Errorf("netlist: invalid pin reference")
	}
	n := ref.Inst.nets[ref.Pin]
	if n == nil {
		return fmt.Errorf("netlist: pin %s/%s not connected", ref.Inst.Name, ref.Spec().Name)
	}
	if ref.Spec().Dir == cell.DirOut {
		n.Driver = PinRef{}
	} else {
		for i, s := range n.Sinks {
			if s == ref {
				n.Sinks = append(n.Sinks[:i], n.Sinks[i+1:]...)
				break
			}
		}
	}
	ref.Inst.nets[ref.Pin] = nil
	d.bumpNet(n)
	d.bumpTopo()
	return nil
}

// TestDisconnectBatchMatchesLoop runs each random batch three ways on
// identical copies — one batch call, one Disconnect call per ref, and
// the reference algorithm per ref — and requires the same error, sink
// order, bindings, revisions and structure notifications.
func TestDisconnectBatchMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	failed, clean := 0, 0
	for trial := 0; trial < 3000; trial++ {
		base := randomDesign(t, rng)
		var ds [3]*Design
		for i := range ds {
			d, err := base.Clone("copy")
			if err != nil {
				t.Fatal(err)
			}
			ds[i] = d
		}
		// Corrupt the copies identically in half of the trials.
		if rng.Intn(2) == 0 {
			seed := rng.Int63()
			for _, d := range ds {
				crng := rand.New(rand.NewSource(seed))
				for c := 1 + crng.Intn(3); c > 0; c-- {
					corrupt(d, crng)
				}
			}
		}
		idx := randomBatch(rng, ds[0])
		var notes [3]structCounter
		for i, d := range ds {
			d.Observe(&notes[i])
		}
		var errs [3]error
		errs[0] = ds[0].Disconnect(refsOf(ds[0], idx)...)
		for _, ref := range refsOf(ds[1], idx) {
			if errs[1] = ds[1].Disconnect(ref); errs[1] != nil {
				break
			}
		}
		for _, ref := range refsOf(ds[2], idx) {
			if errs[2] = disconnectScan(ds[2], ref); errs[2] != nil {
				break
			}
		}
		for i, way := range []string{"batch", "per-pin Disconnect"} {
			if errText(errs[i]) != errText(errs[2]) {
				t.Fatalf("trial %d batch %v: %s error %s, reference %s", trial, idx, way, errText(errs[i]), errText(errs[2]))
			}
			if diff := sameState(ds[i], ds[2]); diff != "" {
				t.Fatalf("trial %d batch %v: %s vs reference: %s", trial, idx, way, diff)
			}
			if notes[i] != notes[2] {
				t.Fatalf("trial %d batch %v: %s sent %d structure notifications, reference %d", trial, idx, way, notes[i], notes[2])
			}
		}
		if errs[2] != nil {
			failed++
		} else {
			clean++
		}
	}
	if failed < 100 || clean < 100 {
		t.Errorf("weak coverage: %d failing batches, %d clean", failed, clean)
	}
}

// TestDisconnectStaleSinkEntries detaches, in one batch, a pin that a
// second net still lists after the pin was rebound, together with
// another sink of that second net. Only the net the pin is bound to may
// lose its entry, exactly as with the reference per-pin algorithm.
func TestDisconnectStaleSinkEntries(t *testing.T) {
	var ds [2]*Design
	for i := range ds {
		d := buildMini(t)
		in, mid := d.Net("in"), d.Net("mid")
		u2 := d.Instance("u2")
		// u2/A stays listed on mid but is bound to in; in lists u2/A too.
		u2.nets[0] = in
		in.Sinks = append(in.Sinks, PinRef{Inst: u2, Pin: 0})
		// mid gains a second sink so it is touched by the batch as well.
		r1 := d.Instance("r1")
		mid.Sinks = append(mid.Sinks, PinRef{Inst: r1, Pin: 0})
		r1.nets[0].Sinks = nil
		r1.nets[0] = mid
		ds[i] = d
	}
	refs := func(d *Design) []PinRef {
		return []PinRef{{Inst: d.Instance("r1"), Pin: 0}, {Inst: d.Instance("u2"), Pin: 0}}
	}
	if err := ds[0].Disconnect(refs(ds[0])...); err != nil {
		t.Fatal(err)
	}
	for _, ref := range refs(ds[1]) {
		if err := disconnectScan(ds[1], ref); err != nil {
			t.Fatal(err)
		}
	}
	if diff := sameState(ds[0], ds[1]); diff != "" {
		t.Fatal(diff)
	}
	if mid := ds[0].Net("mid"); len(mid.Sinks) != 1 || mid.Sinks[0].Inst.Name != "u2" {
		t.Errorf("mid sinks = %v, want the stale u2/A entry only", mid.Sinks)
	}
}

// fanoutDesign is one port-driven net feeding n inverters.
func fanoutDesign(t testing.TB, n int) *Design {
	t.Helper()
	d := New("fanout")
	inv := lib12.Smallest(cell.FuncInv)
	net, _ := d.AddNet("big")
	if _, err := d.AddPort("in", cell.DirIn, net); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		inst, err := d.AddInstance(fmt.Sprintf("u%d", i), inv)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(inst, "A", net); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestHighFanoutEditsLinear bounds Validate and a full batch Disconnect
// on a 100k-sink net at 1 s each, about 50x over linear time; the
// quadratic algorithms take minutes.
func TestHighFanoutEditsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-sink scaling test")
	}
	d := fanoutDesign(t, 100_000)
	net := d.Net("big")

	start := time.Now()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("Validate on a 100k-sink net took %v, want < 1s", el)
	}

	sinks := append([]PinRef{}, net.Sinks...)
	start = time.Now()
	if err := d.Disconnect(sinks...); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("Disconnect of 100k sinks took %v, want < 1s", el)
	}
	if len(net.Sinks) != 0 {
		t.Errorf("%d sinks left on the net", len(net.Sinks))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkKernelValidate measures Validate on the 100k-sink fixture.
func BenchmarkKernelValidate(b *testing.B) {
	d := fanoutDesign(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelDisconnect measures detaching every sink of the
// 100k-sink fixture in one call; rebuilding the fixture is untimed.
func BenchmarkKernelDisconnect(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := fanoutDesign(b, 100_000)
		sinks := append([]PinRef{}, d.Net("big").Sinks...)
		b.StartTimer()
		if err := d.Disconnect(sinks...); err != nil {
			b.Fatal(err)
		}
	}
}
