package workload

import (
	"fmt"

	"icost/internal/isa"
	"icost/internal/rng"
	"icost/internal/trace"
)

// Data-region layout for generated workloads. The hot region starts at
// DataBase; the cold region follows, 64-byte aligned. Addresses never
// collide with the code region (program.CodeBase is far below).
const DataBase isa.Addr = 0x10000000

// accessAlign is the alignment of generated data accesses.
const accessAlign = 8

// maxCallDepth bounds the executor's return-address stack; deeper
// calls simply overwrite the top (generated programs never nest, so
// this is defensive).
const maxCallDepth = 64

// Execute interprets the workload for n dynamic instructions and
// returns the trace. The seed controls branch outcomes and address
// draws; the same (workload, n, seed) always produces the same trace.
func (w *Workload) Execute(n int, seed uint64) (*trace.Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload %s: non-positive trace length %d", w.Prof.Name, n)
	}
	insts := make([]trace.DynInst, n)
	if err := w.newInterp(seed).fill(insts); err != nil {
		return nil, err
	}
	return &trace.Trace{Prog: w.Prog, Insts: insts, Name: w.Prof.Name}, nil
}

// interp is the interpreter between two instructions: its random
// streams, its execution state and the next static instruction.
// Execute, ExecuteStream and ExecuteRecycled all run one through
// fill, which is what makes their dynamic streams bit-identical
// however the instructions are chunked.
type interp struct {
	w          *Workload
	rb, ra, rj *rng.Rand

	coldBase            isa.Addr
	coldBytes, hotBytes int64

	st execState
	si int
}

// newInterp starts the interpreter at the program entry for seed.
func (w *Workload) newInterp(seed uint64) *interp {
	base := rng.New(seed)
	it := &interp{
		w:         w,
		rb:        base.Derive("branch:" + w.Prof.Name),
		ra:        base.Derive("addr:" + w.Prof.Name),
		rj:        base.Derive("indirect:" + w.Prof.Name),
		coldBase:  DataBase + isa.Addr((w.Prof.HotBytes+63)&^63),
		coldBytes: w.Prof.ColdBytes,
		hotBytes:  w.Prof.HotBytes,
		st: execState{
			chasePos:  make([]uint64, w.Prof.ChaseChains),
			streamCur: make([]isa.Addr, w.Prog.Len()),
			tripCnt:   make([]uint16, w.Prog.Len()),
			stack:     make([]isa.Addr, 0, maxCallDepth),
		},
	}
	for i := range it.st.chasePos {
		it.st.chasePos[i] = it.ra.Uint64() % uint64(it.coldBytes-accessAlign)
	}
	return it
}

// fill interprets the next len(buf) dynamic instructions into buf.
func (it *interp) fill(buf []trace.DynInst) error {
	w, st, si := it.w, &it.st, it.si
	rb, ra, rj := it.rb, it.ra, it.rj
	for k := range buf {
		in := w.Prog.At(si)
		m := &w.meta[si]
		d := trace.DynInst{SIdx: int32(si), Target: in.NextPC()}
		switch in.Op {
		case isa.OpBranch:
			if m.trip > 0 {
				// Deterministic loop: taken trip-1 times, then out.
				st.tripCnt[si]++
				d.Taken = st.tripCnt[si]%m.trip != 0
			} else {
				d.Taken = rb.Bool(float64(m.bias))
			}
			if d.Taken {
				d.Target = in.Target
			}
		case isa.OpJump, isa.OpCall:
			d.Taken = true
			d.Target = in.Target
			if in.Op == isa.OpCall {
				if len(st.stack) < maxCallDepth {
					st.stack = append(st.stack, in.NextPC())
				} else {
					st.stack[len(st.stack)-1] = in.NextPC()
				}
			}
		case isa.OpReturn:
			d.Taken = true
			if len(st.stack) > 0 {
				d.Target = st.stack[len(st.stack)-1]
				st.stack = st.stack[:len(st.stack)-1]
			} else {
				// Defensive: a return reached without a call restarts
				// the main loop. Generated programs never hit this.
				d.Target = w.Prog.PCOf(0)
			}
		case isa.OpJumpIndirect:
			d.Taken = true
			d.Target = w.Prog.PCOf(int(m.targets[skewedPick(rj, len(m.targets))]))
		case isa.OpLoad, isa.OpStore:
			d.Addr = w.nextAddr(si, m, st, ra, it.coldBase, it.coldBytes, it.hotBytes)
			if in.Op == isa.OpStore {
				st.lastStore = d.Addr
			}
		}
		buf[k] = d
		next := w.Prog.IndexOf(d.Target)
		if next < 0 {
			return fmt.Errorf("workload %s: control left the program at %v", w.Prof.Name, in)
		}
		si = next
	}
	it.si = si
	return nil
}

// MustExecute is Execute that panics on error.
func (w *Workload) MustExecute(n int, seed uint64) *trace.Trace {
	t, err := w.Execute(n, seed)
	if err != nil {
		panic(err)
	}
	return t
}

// Load generates benchmark name with the given seed and executes n
// instructions — the one-call entry point used by experiments.
func Load(name string, seed uint64, n int) (*trace.Trace, error) {
	w, err := New(name, seed)
	if err != nil {
		return nil, err
	}
	return w.Execute(n, seed+1)
}

type execState struct {
	chasePos  []uint64
	streamCur []isa.Addr // per static instruction; 0 = uninitialized
	tripCnt   []uint16   // per static branch, for fixed-trip loops
	stack     []isa.Addr
	lastStore isa.Addr // most recent store address, for PatAlias loads
}

func (w *Workload) nextAddr(si int, m *instMeta, st *execState, ra *rng.Rand,
	coldBase isa.Addr, coldBytes, hotBytes int64) isa.Addr {
	switch m.pat {
	case PatHot:
		return DataBase + isa.Addr(align(ra.Int63n(hotBytes-accessAlign)))
	case PatCold:
		return coldBase + isa.Addr(align(ra.Int63n(coldBytes-accessAlign)))
	case PatStream:
		cur := st.streamCur[si]
		if cur == 0 {
			cur = coldBase + isa.Addr(align(ra.Int63n(coldBytes-accessAlign)))
		}
		next := cur + accessAlign
		if next >= coldBase+isa.Addr(coldBytes)-accessAlign {
			next = coldBase
		}
		st.streamCur[si] = next
		return cur
	case PatAlias:
		// Reload of the most recent store (or a hot address before
		// any store has executed).
		if st.lastStore != 0 {
			return st.lastStore
		}
		return DataBase + isa.Addr(align(ra.Int63n(hotBytes-accessAlign)))
	case PatChase:
		pos := st.chasePos[m.chain]
		addr := coldBase + isa.Addr(align(int64(pos%uint64(coldBytes-accessAlign))))
		// The next link is a pseudo-random function of the current
		// position, mimicking a randomized linked structure.
		st.chasePos[m.chain] = splitmix(pos + uint64(m.chain)*0x9e3779b97f4a7c15)
		return addr
	default:
		// Memory instruction without a pattern indicates a generator
		// bug; fail loudly in tests via Validate (addr 0).
		return 0
	}
}

func align(v int64) int64 { return v &^ (accessAlign - 1) }

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// skewedPick selects an index in [0, n) with probability proportional
// to 1/(i+1): indirect jumps have a hot primary target and a tail,
// which is what gives BTB-based indirect prediction something to
// predict.
func skewedPick(r *rng.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / float64(i+1)
	}
	u := r.Float64() * total
	for i := 0; i < n; i++ {
		u -= 1 / float64(i+1)
		if u <= 0 {
			return i
		}
	}
	return n - 1
}
