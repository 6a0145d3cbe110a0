package depgraph

import "fmt"

// DefaultConfig is the paper's Table 6 machine expressed as graph
// parameters: 64-entry window, 6-wide fetch/commit, 15-cycle pipeline
// apportioned as 8 cycles of branch-recovery (fetch-to-dispatch),
// 2 cycles dispatch-to-ready and 2 cycles complete-to-commit, with the
// Table 6 memory latencies.
func DefaultConfig() Config {
	return Config{
		FetchBW: 6, CommitBW: 6,
		Window: 64, WindowIdealFactor: 20,
		DispatchToReady: 2, CompleteToCommit: 2,
		BranchRecovery: 8, WakeupExtra: 0,
		DL1Latency: 2, L2Latency: 12, MemLatency: 100, TLBMissLatency: 30,
	}
}

// NodeKind identifies one of the five per-instruction nodes.
type NodeKind uint8

// The five node kinds, in pipeline order.
const (
	NodeD NodeKind = iota
	NodeR
	NodeE
	NodeP
	NodeC
)

var nodeNames = [...]string{"D", "R", "E", "P", "C"}

// String returns the paper's single-letter node name.
func (k NodeKind) String() string {
	if int(k) < len(nodeNames) {
		return nodeNames[k]
	}
	return fmt.Sprintf("node?%d", uint8(k))
}

// EdgeKind identifies a constraint type (paper Table 3).
type EdgeKind uint8

// The twelve edge kinds of Table 3.
const (
	EdgeDD EdgeKind = iota
	EdgeFBW
	EdgeCD
	EdgePD
	EdgeDR
	EdgePR
	EdgeRE
	EdgeEP
	EdgePP
	EdgePC
	EdgeCC
	EdgeCBW
)

var edgeNames = [...]string{
	"DD", "FBW", "CD", "PD", "DR", "PR", "RE", "EP", "PP", "PC", "CC", "CBW",
}

// String returns the paper's edge name.
func (k EdgeKind) String() string {
	if int(k) < len(edgeNames) {
		return edgeNames[k]
	}
	return fmt.Sprintf("edge?%d", uint8(k))
}

// Edge is one explicit constraint, produced by InEdges for
// visualization, testing and critical-path walks.
type Edge struct {
	Kind     EdgeKind
	FromInst int
	FromNode NodeKind
	ToInst   int
	ToNode   NodeKind
	Lat      int64
}

// String renders e.g. "P3 -PR(0)-> R5".
func (e Edge) String() string {
	return fmt.Sprintf("%v%d -%v(%d)-> %v%d",
		e.FromNode, e.FromInst, e.Kind, e.Lat, e.ToNode, e.ToInst)
}

// InEdges enumerates every edge into the five nodes of instruction i
// under the given idealization. The enumeration matches exactly the
// constraints evaluated by ExecTime, latency for latency (so
// CriticalPath binds against the forward walk's node times).
func (g *Graph) InEdges(i int, id Ideal) []Edge {
	cfg := &g.Cfg
	ft := g.tables()
	ln := scaledLaneOf(cfg, id.Of(i), id.Scale)
	var out []Edge
	// Into D.
	if i > 0 {
		dd := scaleLat(int64(g.DDBreak[i]), ln.bwM) + scaleLat(int64(ft.icache[i]), ln.icM)
		out = append(out, Edge{EdgeDD, i - 1, NodeD, i, NodeD, dd})
		if g.Info[i-1].Mispredict {
			// Gated and scaled by the branch's (i-1's) effective flags.
			if recM := scaledLaneOf(cfg, id.Of(i-1), id.Scale).recM; recM > 0 {
				out = append(out, Edge{EdgePD, i - 1, NodeP, i, NodeD,
					scaleLat(int64(cfg.BranchRecovery), recM)})
			}
		}
	}
	if ln.bwM > 0 && i >= cfg.FetchBW {
		out = append(out, Edge{EdgeFBW, i - cfg.FetchBW, NodeD, i, NodeD, 1})
	}
	if i >= ln.win {
		out = append(out, Edge{EdgeCD, i - ln.win, NodeC, i, NodeD, 0})
	}
	// Into R.
	out = append(out, Edge{EdgeDR, i, NodeD, i, NodeR, int64(cfg.DispatchToReady)})
	if p := g.Prod1[i]; p >= 0 {
		out = append(out, Edge{EdgePR, int(p), NodeP, i, NodeR, int64(cfg.WakeupExtra)})
	}
	if p := g.Prod2[i]; p >= 0 {
		out = append(out, Edge{EdgePR, int(p), NodeP, i, NodeR, int64(cfg.WakeupExtra)})
	}
	// Into E.
	out = append(out, Edge{EdgeRE, i, NodeR, i, NodeE, scaleLat(int64(g.RELat[i]), ln.bwM)})
	// Into P.
	ep := scaleLat(int64(ft.epLat[i]), ln.ep[ft.epClass[i]]) + scaleLat(int64(ft.epDMiss[i]), ln.dmM)
	out = append(out, Edge{EdgeEP, i, NodeE, i, NodeP, ep})
	if l := g.PPLeader[i]; l >= 0 && ln.dmM > 0 {
		out = append(out, Edge{EdgePP, int(l), NodeP, i, NodeP, 0})
	}
	// Into C.
	out = append(out, Edge{EdgePC, i, NodeP, i, NodeC, int64(cfg.CompleteToCommit)})
	if i > 0 {
		out = append(out, Edge{EdgeCC, i - 1, NodeC, i, NodeC, scaleLat(int64(g.CCLat[i]), ln.bwM)})
	}
	if ln.bwM > 0 && i >= cfg.CommitBW {
		out = append(out, Edge{EdgeCBW, i - cfg.CommitBW, NodeC, i, NodeC, 1})
	}
	return out
}

// nodeTime reads one node's time from a Times. The switch is
// exhaustive over the five kinds: a sixth node kind must say where
// its times live, not silently read the commit column.
func (t *Times) nodeTime(k NodeKind, i int) int64 {
	switch k {
	case NodeD:
		return t.D[i]
	case NodeR:
		return t.R[i]
	case NodeE:
		return t.E[i]
	case NodeP:
		return t.P[i]
	case NodeC:
		return t.C[i]
	default:
		panic("depgraph: unknown NodeKind " + k.String())
	}
}

// CriticalPath walks the binding-edge chain backward from the last
// instruction's C node and returns the edges of one critical path,
// in execution order. Ties are broken toward the first enumerated
// binding edge. The walk is exact for this model: every node's time
// equals the max over its in-edges of source time plus latency (node
// slack is zero along the returned path).
func (g *Graph) CriticalPath(id Ideal) []Edge {
	n := g.Len()
	if n == 0 {
		return nil
	}
	t := g.NodeTimes(id)
	var path []Edge
	inst, node := n-1, NodeC
	for {
		found := false
		for _, e := range g.InEdges(inst, id) {
			if e.ToNode != node {
				continue
			}
			if t.nodeTime(e.FromNode, e.FromInst)+e.Lat == t.nodeTime(node, inst) {
				path = append(path, e)
				inst, node = e.FromInst, e.FromNode
				found = true
				break
			}
		}
		if !found {
			break // reached a source node (time fully from latencies)
		}
		if node == NodeD && t.D[inst] == 0 && inst == 0 {
			break
		}
	}
	// Reverse into execution order.
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return path
}
