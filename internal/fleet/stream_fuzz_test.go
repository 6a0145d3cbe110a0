package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"

	"icost/internal/isa"
	"icost/internal/profiler"
)

// Allocation bound for one ReadStream call. Decoded batches stay
// within a small multiple of their bytes, the frame buffer included
// (it grows as frame bytes arrive); each batch attempted costs its map
// and decoder; the stream's own reader and header strings declared up
// to maxNameLen fit the constant.
const (
	streamAllocPerByte  = 16
	streamAllocPerBatch = 16 << 10
	streamAllocConst    = 64 << 10
)

// craftedStreams returns four malformed ICFS bodies, each well framed
// up to its one bad field: a batch with a bad sample magic, a batch
// whose detailed sample has opcode 255, a batch whose instruction
// count varint exceeds its bound, and a header whose seed varint
// overflows 64 bits.
func craftedStreams() map[string][]byte {
	str := func(b []byte, s string) []byte {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	header := func(seed []byte) []byte {
		b := str(append([]byte(nil), streamMagic[:]...), "gzip")
		b = append(b, seed...)
		return str(str(b, "prod"), "h")
	}
	batch := func(payload ...byte) []byte {
		b := append(header(binary.AppendUvarint(nil, 42)), recBatch)
		b = append(binary.AppendUvarint(b, uint64(len(payload))), payload...)
		return binary.AppendUvarint(append(b, recEnd), 1)
	}
	sample := []byte("ICSP\x01")
	opcode := append(append([]byte(nil), sample...), 0, 0, 1) // 0 insts, 0 signatures, 1 detail
	opcode = append(append(opcode, make([]byte, 8)...), 255)  // its PC, then the opcode
	bound := binary.AppendUvarint(append([]byte(nil), sample...), 1<<32)
	return map[string][]byte{
		"bad sample magic": batch([]byte("XXXX\x01")...),
		"opcode 255":       batch(opcode...),
		"varint bound":     batch(bound...),
		"seed overflow":    header(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)),
	}
}

// FuzzReadStream fuzzes the ICFS decoder behind POST /ingest: for any
// input it must return without panicking, fail only with a
// *ValidationError or a truncation (io.EOF, io.ErrUnexpectedEOF), and
// allocate no more than streamAllocPerByte bytes per input byte plus
// streamAllocPerBatch per batch attempted plus streamAllocConst.
func FuzzReadStream(f *testing.F) {
	var real bytes.Buffer
	h := Header{Binary: "gzip", Seed: 42, Group: "prod", Host: "host-00"}
	if err := WriteStream(&real, h, []*profiler.Samples{smallBatch(f, 7), smallBatch(f, 8)}); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())
	f.Add(real.Bytes()[:real.Len()/2])
	for _, raw := range craftedStreams() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		batches := 1 // the one that failed, if any
		var err error
		alloc := allocBytes(func() {
			_, _, err = ReadStream(bytes.NewReader(data), func(Header, *profiler.Samples) error {
				batches++
				return nil
			})
		})
		var verr *ValidationError
		if err != nil && !errors.As(err, &verr) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("untyped decode error: %v", err)
		}
		if limit := streamAllocPerByte*uint64(len(data)) + streamAllocPerBatch*uint64(batches) + streamAllocConst; alloc > limit {
			t.Fatalf("decoding %d bytes (%d batches) allocated %d, limit %d", len(data), batches, alloc, limit)
		}
	})
}

// smallBatch keeps a real gzip batch's first signature sample and the
// detailed samples of its three lowest PCs: a seed small enough for
// the fuzzer to minimize, with every field a real collection fills.
func smallBatch(tb testing.TB, traceSeed uint64) *profiler.Samples {
	s := hostBatch(tb, "gzip", 42, traceSeed)
	pcs := make([]isa.Addr, 0, len(s.Details))
	for pc := range s.Details {
		pcs = append(pcs, pc)
	}
	slices.Sort(pcs)
	small := &profiler.Samples{Sigs: s.Sigs[:1], Details: map[isa.Addr][]profiler.DetailedSample{}, Insts: s.Insts}
	for _, pc := range pcs[:min(3, len(pcs))] {
		small.Details[pc] = s.Details[pc]
	}
	return small
}

// allocBytes reports the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
