// Package sta implements graph-based static timing analysis over a placed
// and extracted design: NLDM delay/slew lookup, Elmore wire delays, slew
// propagation, setup checks against a clock with per-register latency,
// WNS/TNS, per-cell worst slack (the criticality metric feeding the
// timing-based partitioner), and K-worst critical path extraction.
//
// Heterogeneous 3-D designs get the paper's boundary-cell derates
// (Tables II/III) applied to any cell whose input or output nets cross
// tiers.
package sta

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/dense"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/route"
)

// node indices: one timing node per instance (its output pin). Ports and
// register D-pins are handled as graph sources/endpoints rather than
// separate nodes.

// graph is the levelized combinational view of a design. rebuild reuses
// the order/count storage, so a persistent Timer re-levelizing after a
// structural edit allocates nothing once warm.
type graph struct {
	d *netlist.Design
	// order lists every instance in topological order.
	order []*netlist.Instance
	// faninCount[id] counts instance id's data fanin arcs (input pins on
	// instance-driven nets); remaining is the Kahn loop's working copy.
	faninCount []int
	remaining  []int
}

// buildGraph levelizes the combinational portion of the design.
func buildGraph(d *netlist.Design) (*graph, error) {
	g := &graph{}
	if err := g.rebuild(d); err != nil {
		return nil, err
	}
	return g, nil
}

// rebuild levelizes d into g, reusing g's storage. Sequential cells and
// macros are timing sources (their outputs launch) and sinks (their D
// inputs capture); combinational loops are an error.
//
// The order is a strict topological sort: every data arc into a
// combinational instance — from a source or not — comes from an
// instance at an earlier position, so a forward sweep in this order
// sees every input arrival final before it computes a node.
func (g *graph) rebuild(d *netlist.Design) error {
	g.d = d
	conn := d.Conn()
	g.faninCount = dense.Zero(g.faninCount, len(d.Instances))

	// Count every data fanin arc of each combinational instance. The
	// Kahn loop below releases one count per arc as its driver pops.
	for _, inst := range d.Instances {
		if timingSource(inst) {
			continue // sources enter the order immediately
		}
		for i, p := range inst.Master.Pins {
			if p.Dir != cell.DirIn {
				continue
			}
			n := d.NetAt(inst, i)
			if n == nil || !n.Driver.Valid() {
				continue // port-driven or floating
			}
			g.faninCount[inst.ID]++
		}
	}

	// Kahn's algorithm: sources first, then zero-fanin combinational.
	// g.order doubles as the FIFO queue — every queued instance lands in
	// the order exactly once, in pop order, so a read cursor over the
	// growing slice is the queue.
	g.remaining = dense.Grow(g.remaining, len(d.Instances))
	copy(g.remaining, g.faninCount)
	g.order = g.order[:0]
	for _, inst := range d.Instances {
		if timingSource(inst) || g.remaining[inst.ID] == 0 {
			g.order = append(g.order, inst)
		}
	}
	for qi := 0; qi < len(g.order); qi++ {
		inst := g.order[qi]
		out := conn.OutputNet(inst)
		if out == nil {
			continue
		}
		for _, s := range out.Sinks {
			sk := s.Inst
			if timingSource(sk) || s.Spec().Dir == cell.DirClk {
				continue
			}
			g.remaining[sk.ID]--
			if g.remaining[sk.ID] == 0 {
				g.order = append(g.order, sk)
			}
		}
	}
	if len(g.order) != len(d.Instances) {
		return fmt.Errorf("sta: combinational cycle detected (%d of %d instances levelized)",
			len(g.order), len(d.Instances))
	}
	return nil
}

// TopoOrder returns the design's instances levelized: sequential cells,
// macros and cells fed only by ports lead, then the remaining
// combinational cells in strict dependency order (every data arc into a
// combinational instance comes from an earlier position). Power
// analysis reuses this for activity propagation.
func TopoOrder(d *netlist.Design) ([]*netlist.Instance, error) {
	g, err := buildGraph(d)
	if err != nil {
		return nil, err
	}
	return g.order, nil
}

// extraction caches per-net RC data for one analysis run.
type extraction struct {
	rc []*route.NetRC // by net ID
}

// extractAll extracts every non-clock net, fanning out per net when
// workers > 1. Each net writes only its own rc slot, so the result is
// identical at any worker count; r must be safe for concurrent Extract
// (Router is pure, Cache is singleflight).
func extractAll(d *netlist.Design, r route.Extractor, workers int) *extraction {
	ex := &extraction{rc: make([]*route.NetRC, len(d.Nets))}
	par.ParallelFor(workers, len(d.Nets), func(i int) {
		n := d.Nets[i]
		if n.IsClock {
			return // clock timing comes from the CTS latency model
		}
		ex.rc[n.ID] = r.Extract(n) //poolescape:ignore reference table keeps extractor-owned results for its whole (test-scoped) lifetime
	})
	return ex
}
