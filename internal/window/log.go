package window

import (
	"encoding/binary"

	"icost/internal/cache"
	"icost/internal/depgraph"
	"icost/internal/isa"
	"icost/internal/ooo"
)

// Block log. A windowed pass generates the trace, simulates it and
// folds the emitted blocks; only the fold depends on the lanes. A Log
// records the blocks of one pass compactly, so a later pass over the
// same stream (Replay) decodes them into the lane groups instead of
// regenerating and re-simulating — one simulation, then many graph
// evaluations, which is the paper's §3 argument, kept for windowed
// sessions too.
//
// Each instruction is an op byte, a presence byte and then only the
// fields present:
//
//	op       isa.Op
//	presence hasDDBreak | hasRELat | hasCCLat | hasMiss |
//	         hasProd1 | hasProd2 | hasLeader | isMisp
//	DDBreak  one byte
//	RELat    uvarint of the int32's bits
//	CCLat    uvarint of the int32's bits
//	miss     DataLevel | DTLBMiss<<2 | ILevel<<3 | ITLBMiss<<5
//	refs     uvarint backward distance, producer 1, producer 2, leader
//
// A reference farther back than the pass's horizon
// (depgraph.Config.Horizon) or before the stream start is dropped,
// since the fold ignores it anyway (refRow in depgraph/windoweval.go).
// MispPrev is re-derived from the previous instruction's mispredict
// bit, and SIdx, which the fold never reads, is not kept. The encoding
// fills fixed-size chunks — an instruction never straddles two — so a
// recording grows without copying.

// Presence bits.
const (
	hasDDBreak = 1 << iota
	hasRELat
	hasCCLat
	hasMiss
	hasProd1
	hasProd2
	hasLeader
	isMisp
)

const (
	// logChunk is the size of one recording chunk.
	logChunk = 64 << 10
	// maxInstBytes bounds one instruction's encoding: the op,
	// presence, DDBreak and miss bytes, and five uvarints of 32 bits.
	maxInstBytes = 4 + 5*binary.MaxVarintLen32
	// LogCap bounds a log's bytes, about five million instructions: a
	// recording that would grow past it is abandoned, and the stream's
	// later passes re-simulate.
	LogCap = 16 << 20
)

// logState is where a Log is in its life.
type logState uint8

const (
	logEmpty     logState = iota // never recorded, or a failed pass
	logRecording                 // a pass is encoding into it
	logAbandoned                 // the recording outgrew LogCap or its derivations
	logComplete                  // a whole, self-checked pass
)

// Log is the block log of one windowed pass: every timed instruction
// the simulator emitted, plus the pass's cycles and stats. The zero
// value is an empty log; Record fills it, Replay reads it. A complete
// log is immutable, so any number of replays may read it at once; it
// must not be recorded into again while one does.
type Log struct {
	req    Request
	carry  int64    // reference horizon of the recording
	chunks [][]byte // each chunk's length is its encoded bytes
	cur    int      // chunk being filled
	state  logState

	insts    int64 // instructions encoded
	prevMisp bool  // the last encoded instruction's mispredict bit

	cycles int64
	stats  ooo.Stats
}

// Complete reports whether l holds a whole recorded pass that Replay
// can fold.
func (l *Log) Complete() bool { return l.state == logComplete }

// Insts is the number of instructions recorded.
func (l *Log) Insts() int64 { return l.insts }

// Bytes is the memory the log's chunks hold.
func (l *Log) Bytes() int64 {
	var n int64
	for _, c := range l.chunks {
		n += int64(cap(c))
	}
	return n
}

// encodedBytes is the length of the encoding, without chunk slack.
func (l *Log) encodedBytes() int64 {
	var n int64
	for _, c := range l.chunks {
		n += int64(len(c))
	}
	return n
}

// reset prepares l to record a pass of req, dropping any earlier
// recording.
func (l *Log) reset(req Request) {
	*l = Log{req: req, carry: int64(req.Sim.Graph.Horizon(req.TraceLen)), state: logRecording}
}

// abandon gives the recording up and frees its chunks.
func (l *Log) abandon() {
	l.state = logAbandoned
	l.chunks = nil
}

// finish completes a recording whose pass succeeded.
func (l *Log) finish(res *ooo.Result) {
	if l.state != logRecording || l.insts != int64(l.req.TraceLen) {
		l.abandon()
		return
	}
	l.state = logComplete
	l.cycles, l.stats = res.Cycles, res.Stats
}

// chunk returns the chunk to encode the next instruction into: the
// current one while it has room for a whole instruction, else a new
// one. It returns nil once the log would outgrow LogCap.
func (l *Log) chunk() []byte {
	if len(l.chunks) == 0 {
		l.chunks = append(l.chunks, make([]byte, 0, logChunk))
		l.cur = 0
	}
	if buf := l.chunks[l.cur]; cap(buf)-len(buf) >= maxInstBytes {
		return buf
	}
	if int64(l.cur+2)*logChunk > LogCap {
		return nil
	}
	l.cur++
	l.chunks = append(l.chunks, make([]byte, 0, logChunk))
	return l.chunks[l.cur]
}

// encode appends one emitted block. A block out of stream order, a
// MispPrev the previous instruction's bit does not explain, or a
// backward reference abandons the recording: the log then holds only
// what it can replay exactly.
func (l *Log) encode(win *depgraph.Window) {
	if l.state != logRecording {
		return
	}
	if win.Lo != l.insts {
		l.abandon()
		return
	}
	buf := l.chunk()
	for j := 0; j < win.N; j++ {
		if buf != nil && cap(buf)-len(buf) < maxInstBytes {
			l.chunks[l.cur] = buf
			buf = l.chunk()
		}
		if buf == nil || (win.MispPrev[j] != 0) != l.prevMisp {
			l.abandon()
			return
		}
		info := &win.Info[j]
		reach := min(win.Lo+int64(j), l.carry)
		b1, ok1 := refBack(win.Prod1[j], j, reach)
		b2, ok2 := refBack(win.Prod2[j], j, reach)
		bl, okl := refBack(win.PPLeader[j], j, reach)
		if b1 < 0 || b2 < 0 || bl < 0 {
			l.abandon()
			return
		}
		// Encode in place past the chunk's length: chunk() left room
		// for a whole instruction.
		p := buf[len(buf) : len(buf)+maxInstBytes]
		p[0] = byte(info.Op)
		var pres byte
		n := 2
		if v := win.DDBreak[j]; v != 0 {
			pres |= hasDDBreak
			p[n] = v
			n++
		}
		if v := win.RELat[j]; v != 0 {
			pres |= hasRELat
			n = putUvarint(p, n, uint32(v))
		}
		if v := win.CCLat[j]; v != 0 {
			pres |= hasCCLat
			n = putUvarint(p, n, uint32(v))
		}
		miss := byte(info.DataLevel) | byte(info.ILevel)<<3
		if info.DTLBMiss {
			miss |= 1 << 2
		}
		if info.ITLBMiss {
			miss |= 1 << 5
		}
		if miss != 0 {
			pres |= hasMiss
			p[n] = miss
			n++
		}
		if ok1 {
			pres |= hasProd1
			n = putUvarint(p, n, uint32(b1))
		}
		if ok2 {
			pres |= hasProd2
			n = putUvarint(p, n, uint32(b2))
		}
		if okl {
			pres |= hasLeader
			n = putUvarint(p, n, uint32(bl))
		}
		if info.Mispredict {
			pres |= isMisp
		}
		p[1] = pres
		buf = buf[:len(buf)+n]
		l.prevMisp = info.Mispredict
	}
	l.chunks[l.cur] = buf
	l.insts += int64(win.N)
}

// putUvarint writes v as a uvarint at p[n:] and returns the offset
// past it.
func putUvarint(p []byte, n int, v uint32) int {
	for v >= 0x80 {
		p[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	p[n] = byte(v)
	return n + 1
}

// refBack converts a block-relative reference seen from offset j into
// its backward distance, and whether the fold can read it: a NoRef, or
// a reference farther back than reach, is not recorded. A negative
// distance (a reference forward) is returned as is for the caller to
// refuse.
func refBack(rel int32, j int, reach int64) (int64, bool) {
	if rel == depgraph.NoRef {
		return 0, false
	}
	back := int64(j) - int64(rel)
	if back > reach {
		return 0, false
	}
	return back, true
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// logReader decodes a complete log block by block, in stream order.
type logReader struct {
	l        *Log
	k, off   int   // chunk and offset of the next instruction
	abs      int64 // absolute index of the next instruction
	prevMisp bool
}

// decode fills win with the next n instructions.
//
//lint:hotpath
func (r *logReader) decode(win *depgraph.Window, n int) {
	win.Resize(r.abs, n)
	buf, off := r.l.chunks[r.k], r.off
	for j := 0; j < n; j++ {
		if off == len(buf) {
			r.k++
			buf, off = r.l.chunks[r.k], 0
		}
		op, pres := buf[off], buf[off+1]
		off += 2
		var ddb uint8
		var reLat, ccLat int32
		if pres&hasDDBreak != 0 {
			ddb = buf[off]
			off++
		}
		if pres&hasRELat != 0 {
			v, m := uvarint(buf, off)
			reLat, off = int32(uint32(v)), m
		}
		if pres&hasCCLat != 0 {
			v, m := uvarint(buf, off)
			ccLat, off = int32(uint32(v)), m
		}
		info := depgraph.InstInfo{Op: isa.Op(op), SIdx: -1, Mispredict: pres&isMisp != 0}
		if pres&hasMiss != 0 {
			miss := buf[off]
			off++
			info.DataLevel = cache.Level(miss & 3)
			info.DTLBMiss = miss&(1<<2) != 0
			info.ILevel = cache.Level(miss >> 3 & 3)
			info.ITLBMiss = miss&(1<<5) != 0
		}
		p1, p2, pl := depgraph.NoRef, depgraph.NoRef, depgraph.NoRef
		if pres&hasProd1 != 0 {
			v, m := uvarint(buf, off)
			p1, off = int32(int64(j)-int64(v)), m
		}
		if pres&hasProd2 != 0 {
			v, m := uvarint(buf, off)
			p2, off = int32(int64(j)-int64(v)), m
		}
		if pres&hasLeader != 0 {
			v, m := uvarint(buf, off)
			pl, off = int32(int64(j)-int64(v)), m
		}
		win.Info[j] = info
		win.DDBreak[j] = ddb
		win.RELat[j] = reLat
		win.CCLat[j] = ccLat
		win.Prod1[j] = p1
		win.Prod2[j] = p2
		win.PPLeader[j] = pl
		win.MispPrev[j] = b2u(r.prevMisp)
		r.prevMisp = info.Mispredict
	}
	r.off = off
	r.abs += int64(n)
}

// uvarint decodes the uvarint at buf[off:], which the log's own
// encoder wrote, and returns it with the offset past it.
func uvarint(buf []byte, off int) (uint64, int) {
	if b := buf[off]; b < 0x80 {
		return uint64(b), off + 1
	}
	v, n := binary.Uvarint(buf[off:])
	return v, off + n
}
