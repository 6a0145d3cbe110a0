package main

// Spans recorded at the benchmark's own layer boundaries, kept in
// memory during the traced window and reduced afterwards to per-layer
// self times and a percentage tree.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of one request at one layer: "client"
// (the load generator's round trip), "router" (router handler),
// "forward" (router-to-shard round trip), "daemon" (shard handler) and
// "engine" (the response's elapsed_ns; only its length is known, and
// it is placed at the end of its daemon span).
type span struct {
	Req   string        `json:"req"`
	Layer string        `json:"layer"`
	Start time.Duration `json:"start_ns"` // since the tracer's epoch
	End   time.Duration `json:"end_ns"`
	Bytes int64         `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layerOrder lists the layers outermost first. A span's children are
// the overlapping spans of the next layer present in its request.
var layerOrder = []string{"client", "router", "forward", "daemon", "engine"}

type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes spans as one JSON array.
func writeSpans(w io.Writer, spans []span) error {
	return json.NewEncoder(w).Encode(spans)
}

// selfTime is the parent's duration minus the part of its interval
// that the union of its children covers.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}

// layerStats is the per-layer reduction of a set of spans.
type layerStats struct {
	requests int
	self     map[string]time.Duration // summed self time per layer
	total    map[string]time.Duration // summed span length per layer
	bytes    map[string]int64
	count    map[string]int
}

// reduceSpans groups spans by request, places each engine span at the
// end of its request's first daemon span, and sums self times.
func reduceSpans(spans []span) layerStats {
	st := layerStats{
		self: map[string]time.Duration{}, total: map[string]time.Duration{},
		bytes: map[string]int64{}, count: map[string]int{},
	}
	byReq := map[string]map[string][]span{}
	for _, s := range spans {
		m := byReq[s.Req]
		if m == nil {
			m = map[string][]span{}
			byReq[s.Req] = m
		}
		m[s.Layer] = append(m[s.Layer], s)
	}
	for _, m := range byReq {
		if len(m["client"]) == 0 {
			continue // server-side spans of a request the client never finished
		}
		st.requests++
		if eng, d := m["engine"], m["daemon"]; len(eng) > 0 && len(d) > 0 {
			for i := range eng {
				n := min(eng[i].dur(), d[0].dur())
				eng[i] = span{Req: eng[i].Req, Layer: "engine", Start: d[0].End - n, End: d[0].End}
			}
		}
		var present []string
		for _, l := range layerOrder {
			if len(m[l]) > 0 {
				present = append(present, l)
			}
		}
		for i, l := range present {
			var inner []span
			if i+1 < len(present) {
				inner = m[present[i+1]]
			}
			for _, s := range m[l] {
				st.self[l] += selfTime(s, inner)
				st.total[l] += s.dur()
				st.bytes[l] += s.Bytes
				st.count[l]++
			}
		}
	}
	return st
}

// treeNode is one row of the percentage tree.
type treeNode struct {
	name     string
	value    time.Duration
	children []*treeNode
}

// tree nests the layers: each layer node holds its own self time and
// the node of the next layer inward, so a node's value is exactly the
// sum of its children.
func (st layerStats) tree() *treeNode {
	var present []string
	for _, l := range layerOrder {
		if st.count[l] > 0 {
			present = append(present, l)
		}
	}
	var build func(i int) *treeNode
	build = func(i int) *treeNode {
		l := present[i]
		if i+1 == len(present) {
			return &treeNode{name: l, value: st.self[l]}
		}
		self := &treeNode{name: l + ".self", value: st.self[l]}
		inner := build(i + 1)
		return &treeNode{name: l, value: self.value + inner.value, children: []*treeNode{self, inner}}
	}
	if len(present) == 0 {
		return &treeNode{name: "end-to-end"}
	}
	root := build(0)
	root.name = "end-to-end"
	return root
}

func (n *treeNode) render() string {
	var b strings.Builder
	var walk func(x *treeNode, depth int)
	walk = func(x *treeNode, depth int) {
		pct := 0.0
		if n.value > 0 {
			pct = 100 * float64(x.value) / float64(n.value)
		}
		fmt.Fprintf(&b, "  %s%-*s %6.2f%%  %12.3f ms\n", strings.Repeat("  ", depth), 20-2*depth, x.name,
			pct, float64(x.value.Nanoseconds())/1e6)
		for _, c := range x.children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}
