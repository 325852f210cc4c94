package netlist

import (
	"fmt"

	"repro/internal/cell"
)

// ECO editing primitives. These keep the design structurally consistent
// while synthesis sizes gates, the heterogeneous flow retargets a tier to
// another library, and the repartitioning loop moves cells between tiers.

// ReplaceMaster swaps an instance's master for another with the same pin
// interface (same pin names and directions). Used for gate sizing and for
// the 12-track → 9-track retargeting of the top tier.
//
// The journal records this as a master change on the instance only: the
// swap alters delay tables and pin caps but not wire geometry, so the
// connected nets' extraction revisions stay put and cached RC survives
// the whole sizing loop.
func (d *Design) ReplaceMaster(inst *Instance, m *cell.Master) error {
	if len(m.Pins) != len(inst.Master.Pins) {
		return fmt.Errorf("netlist: master %s has %d pins, %s has %d",
			m.Name, len(m.Pins), inst.Master.Name, len(inst.Master.Pins))
	}
	for i := range m.Pins {
		if m.Pins[i].Name != inst.Master.Pins[i].Name || m.Pins[i].Dir != inst.Master.Pins[i].Dir {
			return fmt.Errorf("netlist: pin %d mismatch replacing %s with %s",
				i, inst.Master.Name, m.Name)
		}
	}
	inst.Master = m
	d.bumpInst(inst)
	d.notify(Change{Kind: ChangeMaster, Inst: inst})
	return nil
}

// InsertBuffer splits net n in front of the given sink subset: a new
// buffer instance (of master buf) is driven by n, and the listed sinks are
// moved onto a new net driven by the buffer. The buffer is placed at the
// centroid of the moved sinks. Returns the new instance and net. The
// names, the sinks (each on n, none repeated) and the buffer's A/Y pins
// are checked before the first edit, so a rejected call leaves the
// design unchanged.
func (d *Design) InsertBuffer(n *Net, sinks []PinRef, buf *cell.Master, name string) (*Instance, *Net, error) {
	if len(sinks) == 0 {
		return nil, nil, fmt.Errorf("netlist: InsertBuffer with no sinks on %q", n.Name)
	}
	if _, dup := d.instByName[name]; dup {
		return nil, nil, fmt.Errorf("netlist: duplicate instance %q", name)
	}
	if _, dup := d.netByName[name+"_net"]; dup {
		return nil, nil, fmt.Errorf("netlist: duplicate net %q", name+"_net")
	}
	moved := make(map[PinRef]bool, len(sinks))
	for _, s := range sinks {
		if moved[s] {
			return nil, nil, fmt.Errorf("netlist: sink listed twice buffering net %q", n.Name)
		}
		moved[s] = true
	}
	found := 0
	for _, s := range n.Sinks {
		if moved[s] {
			found++
		}
	}
	if found != len(sinks) {
		return nil, nil, fmt.Errorf("netlist: %d of %d sinks not on net %q", len(sinks)-found, len(sinks), n.Name)
	}
	for _, pin := range []string{"A", "Y"} {
		if pinIndex(buf, pin) < 0 {
			return nil, nil, fmt.Errorf("netlist: buffer master %s has no pin %q", buf.Name, pin)
		}
	}

	inst, err := d.AddInstance(name, buf)
	if err != nil {
		return nil, nil, err
	}
	newNet, err := d.AddNet(name + "_net")
	if err != nil {
		return nil, nil, err
	}
	newNet.IsClock = n.IsClock

	// Move the chosen sinks from n onto the new net.
	kept := n.Sinks[:0]
	var cx, cy float64
	for _, s := range n.Sinks {
		if moved[s] {
			s.Inst.nets[s.Pin] = newNet
			newNet.Sinks = append(newNet.Sinks, s)
			cx += s.Loc().X
			cy += s.Loc().Y
		} else {
			kept = append(kept, s)
		}
	}
	n.Sinks = kept
	// The sink moves above bypass Connect, so journal them here: both
	// nets' pin memberships changed.
	d.bumpNet(n)
	d.bumpNet(newNet)
	d.bumpTopo()

	// Wire the buffer: A ← n, Y → newNet.
	if err := d.Connect(inst, "A", n); err != nil {
		return nil, nil, err
	}
	if err := d.Connect(inst, "Y", newNet); err != nil {
		return nil, nil, err
	}
	inst.Loc.X = cx / float64(found)
	inst.Loc.Y = cy / float64(found)
	// The buffer inherits the tier of its sinks' majority side later; by
	// default it lands on the driver's tier.
	if n.Driver.Valid() {
		inst.Tier = n.Driver.Inst.Tier
	}
	return inst, newNet, nil
}

// Disconnect removes the binding between each pin and its net. A batch
// is exactly a single-pin call per ref in order: the same final sink
// order on every net, the same revisions, one ChangeStructure
// notification per detached pin, and on error the refs before the
// failing one stay detached. Only the sink-list removal is batched —
// each touched net is compacted once — so detaching k sinks of a net of
// fanout f costs O(f + k) rather than O(f·k).
func (d *Design) Disconnect(refs ...PinRef) error {
	var (
		touched []*Net                 // nets losing sinks, in first-touch order
		group   = make(map[*Net]int32) // net → index in touched
		// of[i] indexes touched for the net refs[i] is detached from, -1
		// for a driver pin; refs past len(of) were not detached.
		of     = make([]int32, 0, len(refs))
		failed error
	)
	for _, ref := range refs {
		if !ref.Valid() {
			failed = fmt.Errorf("netlist: invalid pin reference")
			break
		}
		n := ref.Inst.nets[ref.Pin]
		if n == nil {
			failed = fmt.Errorf("netlist: pin %s/%s not connected", ref.Inst.Name, ref.Spec().Name)
			break
		}
		g := int32(-1)
		if ref.Spec().Dir == cell.DirOut {
			n.Driver = PinRef{}
		} else {
			var ok bool
			if g, ok = group[n]; !ok {
				g = int32(len(touched))
				group[n] = g
				touched = append(touched, n)
			}
		}
		of = append(of, g)
		ref.Inst.nets[ref.Pin] = nil
		d.bumpNet(n)
	}
	// A single-pin call removes the first sink entry equal to its ref.
	// Each detached sink pin's binding slot holds its net's own mark
	// while the nets compact, which keeps that exact: an entry whose pin
	// was detached from another net, or was never bound, carries no mark
	// of this net and stays; clearing the mark on the first match keeps
	// any later duplicate entry.
	marks := make([]Net, len(touched))
	for i, g := range of {
		if g >= 0 {
			refs[i].Inst.nets[refs[i].Pin] = &marks[g]
		}
	}
	for g, n := range touched {
		kept := n.Sinks[:0]
		for _, s := range n.Sinks {
			if s.Inst != nil && s.Pin >= 0 && s.Pin < len(s.Inst.nets) && s.Inst.nets[s.Pin] == &marks[g] {
				s.Inst.nets[s.Pin] = nil
				continue
			}
			kept = append(kept, s)
		}
		n.Sinks = kept
	}
	for i, g := range of {
		if g >= 0 {
			refs[i].Inst.nets[refs[i].Pin] = nil
		}
		d.bumpTopo()
	}
	return failed
}

// Validate checks global structural consistency: every net driven exactly
// once, every pin binding mirrored on the net side, no dangling sinks.
// It runs in O(pins + nets): the net pass marks each listed sink pin in a
// flat array (pin i of d.Instances[k] at base[k]+i), and the instance
// pass tests the mark instead of scanning the net's sink list.
func (d *Design) Validate() error {
	base := make([]int32, len(d.Instances)+1)
	for k, inst := range d.Instances {
		base[k+1] = base[k]
		if inst != nil {
			base[k+1] += int32(len(inst.nets))
		}
	}
	listed := make([]bool, base[len(d.Instances)])
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
			// A sink on an instance the design does not hold at its ID
			// cannot mark another instance's pin.
			if k := s.Inst.ID; k >= 0 && k < len(d.Instances) && d.Instances[k] == s.Inst {
				listed[int(base[k])+s.Pin] = true
			}
		}
	}
	for _, inst := range d.Instances {
		// The marks sit at the instance's ID; one not held there (a
		// corrupted ID) is looked up on the net instead.
		k := inst.ID
		owned := k >= 0 && k < len(d.Instances) && d.Instances[k] == inst
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
			if owned && !listed[int(base[k])+i] || !owned && !n.lists(ref) {
				return fmt.Errorf("netlist: instance %s pin %s not listed on net %q", inst.Name, spec.Name, n.Name)
			}
		}
	}
	return nil
}

// lists reports whether ref is among the net's sinks.
func (n *Net) lists(ref PinRef) bool {
	for _, s := range n.Sinks {
		if s == ref {
			return true
		}
	}
	return false
}
