package check

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// ercBindingScan is the reference ERC-007: the original algorithm, which
// scans the bound net's whole sink list for every input pin. The linear
// rule must report the same findings in the same order.
func ercBindingScan(c *checker) {
	d := c.in.Design
	c.checked(len(d.Nets) + len(d.Instances) + len(d.Ports))
	for _, n := range d.Nets {
		if n.Driver.Valid() && d.NetAt(n.Driver.Inst, n.Driver.Pin) != n {
			c.fail(n.Name, "driver %s/%s does not point back at the net",
				n.Driver.Inst.Name, n.Driver.Spec().Name)
		}
		for _, s := range n.Sinks {
			if !s.Valid() {
				c.fail(n.Name, "invalid sink reference")
				continue
			}
			if s.Spec().Dir == cell.DirOut {
				c.fail(n.Name, "output pin %s/%s listed as sink", s.Inst.Name, s.Spec().Name)
			}
			if d.NetAt(s.Inst, s.Pin) != n {
				c.fail(n.Name, "sink %s/%s does not point back at the net",
					s.Inst.Name, s.Spec().Name)
			}
		}
	}
	for _, inst := range d.Instances {
		if inst.Master == nil {
			continue
		}
		for i, spec := range inst.Master.Pins {
			n := d.NetAt(inst, i)
			if n == nil {
				continue
			}
			ref := netlist.PinRef{Inst: inst, Pin: i}
			if spec.Dir == cell.DirOut {
				if n.Driver != ref {
					c.fail(inst.Name, "output pin %s bound to net %s but not its driver", spec.Name, n.Name)
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
				c.fail(inst.Name, "pin %s bound to net %s but missing from its sinks", spec.Name, n.Name)
			}
		}
	}
	for _, p := range d.Ports {
		if p.Net == nil {
			c.fail(p.Name, "port has no net")
		}
	}
}

// runRule runs one rule function the way Run does and returns its
// statistics and findings.
func runRule(d *netlist.Design, rule func(*checker)) (RuleStat, []Violation) {
	rep := &Report{}
	c := &checker{in: Input{Design: d}, rep: rep, cur: &RuleStat{ID: "ERC-007"}}
	rule(c)
	return *c.cur, rep.Violations
}

// TestERC007MatchesScan corrupts chain designs through the exported
// netlist surface — sink-list edits, stale entries left by a rebind,
// foreign and re-numbered instances, dropped masters — and requires the
// linear ERC-007 to report exactly what the reference scan reports.
func TestERC007MatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inv := lib12.Smallest(cell.FuncInv)
	clean, dirty := 0, 0
	for trial := 0; trial < 3000; trial++ {
		d, _ := chain(t, 2+rng.Intn(6))
		withSinks := func() *netlist.Net {
			for {
				if n := d.Nets[rng.Intn(len(d.Nets))]; len(n.Sinks) > 0 {
					return n
				}
			}
		}
		for c := rng.Intn(4); c > 0; c-- {
			inst := d.Instances[rng.Intn(len(d.Instances))]
			n := d.Nets[rng.Intn(len(d.Nets))]
			switch rng.Intn(9) {
			case 0: // a dropped sink entry
				s := withSinks()
				i := rng.Intn(len(s.Sinks))
				s.Sinks = append(s.Sinks[:i:i], s.Sinks[i+1:]...)
			case 1: // a duplicated sink entry
				s := withSinks()
				s.Sinks = append(s.Sinks, s.Sinks[rng.Intn(len(s.Sinks))])
			case 2: // a rebind that leaves a stale entry on the old net
				s := withSinks()
				ref := s.Sinks[rng.Intn(len(s.Sinks))]
				if !ref.Valid() || ref.Spec().Dir == cell.DirOut || d.NetAt(ref.Inst, ref.Pin) == nil {
					continue
				}
				if err := d.Disconnect(ref); err != nil {
					t.Fatal(err)
				}
				if err := d.Connect(ref.Inst, ref.Spec().Name, n); err != nil {
					t.Fatal(err)
				}
				s.Sinks = append(s.Sinks, ref)
			case 3: // an output pin listed as a sink
				if inst.Master != nil {
					n.Sinks = append(n.Sinks, netlist.PinRef{Inst: inst, Pin: len(inst.Master.Pins) - 1})
				}
			case 4: // a sink on an instance the design does not hold
				other := netlist.New("other")
				f, _ := other.AddInstance(fmt.Sprintf("foreign%d", c), inv)
				f.ID = rng.Intn(len(d.Instances) + 1)
				n.Sinks = append(n.Sinks, netlist.PinRef{Inst: f, Pin: 0})
			case 5: // an ID that is not the instance's position
				inst.ID = rng.Intn(len(d.Instances)+2) - 1
			case 6:
				inst.Master = nil
			case 7: // an unjournaled instance
				d.Instances = append(d.Instances, &netlist.Instance{ID: len(d.Instances), Name: "raw"})
			default: // an invalid sink entry
				n.Sinks = append(n.Sinks, netlist.PinRef{})
			}
		}
		wantStat, want := runRule(d, ercBindingScan)
		gotStat, got := runRule(d, ercBinding)
		if gotStat != wantStat || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ERC-007 reported %d %v, reference %d %v",
				trial, gotStat.Violations, got, wantStat.Violations, want)
		}
		if len(want) == 0 {
			clean++
		} else {
			dirty++
		}
	}
	if clean < 100 || dirty < 100 {
		t.Errorf("weak coverage: %d clean, %d with findings", clean, dirty)
	}
}
