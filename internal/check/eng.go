package check

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// ENG rules: coherence of the engines layered on the netlist. PR 2's
// incremental timer is bit-exact only while the change journal covers
// every object and the retained timing graph levelizes consistently with
// the netlist; these rules assert both, plus revision monotonicity across
// stage boundaries (Session).

func engJournal(c *checker) {
	d := c.in.Design
	c.checked(len(d.Instances) + len(d.Nets))
	insts, nets := d.JournalCoverage()
	if insts != len(d.Instances) {
		c.fail("design", "journal covers %d of %d instances", insts, len(d.Instances))
	}
	if nets != len(d.Nets) {
		c.fail("design", "journal covers %d of %d nets", nets, len(d.Nets))
	}
	for i, inst := range d.Instances {
		if inst.ID != i {
			c.fail(inst.Name, "instance ID %d does not match its index %d", inst.ID, i)
			break // one cascade is one finding
		}
	}
	for i, n := range d.Nets {
		if n.ID != i {
			c.fail(n.Name, "net ID %d does not match its index %d", n.ID, i)
			break
		}
	}
}

// engLevelization checks the STA engine's levelization against the
// contract every timing sweep relies on: sta.TopoOrder exists exactly
// when the design has no combinational cycle, and it is a strict
// topological sort (see checkTopoOrder). The rule does not depend on how
// the engine sorts; ERC-008 stays the independent loop detector.
func engLevelization(c *checker) {
	d := c.in.Design
	c.checked(len(d.Instances))
	for i, inst := range d.Instances {
		if inst.Master == nil {
			c.fail("design", "levelization skipped: instance %s has no master", inst.Name)
			return
		}
		if inst.ID != i {
			// ENG-001 owns the finding; an ID-incoherent design cannot be
			// levelized (the engine indexes its arrays by instance ID).
			return
		}
	}
	order, err := sta.TopoOrder(d)
	if err != nil {
		c.fail("design", "timing graph not levelizable: %v", err)
		return
	}
	if obj, err := checkTopoOrder(d, order); err != nil {
		c.fail(obj, "%v", err)
	}
}

// checkTopoOrder reports the first way order breaks the levelization
// contract, with the object it concerns: every instance of d appears
// exactly once, and every data arc into a combinational instance — from
// a sequential or macro driver too — comes from an earlier position.
// Arcs into sequential cells and macros are captures and may point
// anywhere. d's instance IDs must match their indices.
func checkTopoOrder(d *netlist.Design, order []*netlist.Instance) (obj string, err error) {
	pos := make([]int, len(d.Instances))
	for i := range pos {
		pos[i] = -1
	}
	for p, inst := range order {
		if inst.ID < 0 || inst.ID >= len(pos) || d.Instances[inst.ID] != inst {
			return inst.Name, fmt.Errorf("position %d holds an instance foreign to the design", p)
		}
		if pos[inst.ID] >= 0 {
			return inst.Name, fmt.Errorf("instance appears at positions %d and %d of the topological order", pos[inst.ID], p)
		}
		pos[inst.ID] = p
	}
	for _, inst := range d.Instances {
		if pos[inst.ID] < 0 {
			return inst.Name, fmt.Errorf("instance missing from the topological order (%d of %d levelized)", len(order), len(d.Instances))
		}
	}
	for p, inst := range order {
		if f := inst.Master.Function; f.IsSequential() || f.IsMacro() {
			continue
		}
		for i, pin := range inst.Master.Pins {
			if pin.Dir != cell.DirIn {
				continue
			}
			n := d.NetAt(inst, i)
			if n == nil || !n.Driver.Valid() {
				continue
			}
			if dp := pos[n.Driver.Inst.ID]; dp >= p {
				return inst.Name, fmt.Errorf("data arc %s -> %s.%s runs backwards in the topological order (driver at position %d, sink at %d)",
					n.Driver.Inst.Name, inst.Name, pin.Name, dp, p)
			}
		}
	}
	return "", nil
}

// engMonotonic fires only inside a Session (stage-boundary runs): the
// journal's revisions and the design's object counts must never move
// backwards between boundaries — a decrease means some engine holds a
// stale view of the design.
func engMonotonic(c *checker) {
	s := c.in.session
	if s == nil || !s.seen {
		return
	}
	d := c.in.Design
	c.checked(3)
	if rev := d.TopoRev(); rev < s.prevTopo {
		c.fail("design", "topology revision moved backwards: %d after %d (stage %s)", rev, s.prevTopo, s.prevStage)
	}
	if n := len(d.Instances); n < s.prevInsts {
		c.fail("design", "instance count shrank: %d after %d (stage %s)", n, s.prevInsts, s.prevStage)
	}
	if n := len(d.Nets); n < s.prevNets {
		c.fail("design", "net count shrank: %d after %d (stage %s)", n, s.prevNets, s.prevStage)
	}
}

// Session runs the checker at successive stage boundaries of one flow,
// carrying the revision state the monotonicity rule compares against.
// The zero value is ready to use; Session is not safe for concurrent use
// (one flow = one session).
type Session struct {
	seen      bool
	prevStage string
	prevTopo  uint64
	prevInsts int
	prevNets  int

	reports []*Report
}

// Run checks one stage boundary: the selected classes run over the input
// plus the session's monotonicity context, and the session state advances
// to the new boundary.
func (s *Session) Run(stage string, in Input, classes Class) *Report {
	in.session = s
	rep := Run(in, classes)
	rep.Stage = stage
	if d := in.Design; d != nil {
		s.prevStage = stage
		s.prevTopo = d.TopoRev()
		s.prevInsts = len(d.Instances)
		s.prevNets = len(d.Nets)
		s.seen = true
	}
	s.reports = append(s.reports, rep)
	return rep
}

// Reports returns every boundary report of the session, in run order.
func (s *Session) Reports() []*Report { return s.reports }
