package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"

	"icost/internal/ooo"
)

// Allocation bound for one decode: the payload buffer grows with the
// bytes that arrive, and a graph instruction costs ~37 bytes resident
// for at least snapMinInstBytes encoded, so decoding stays within a
// small multiple of the input plus fixed reader and session overhead.
const (
	snapAllocPerByte = 16
	snapAllocConst   = 64 << 10
)

// craftedSnapshots returns two hostile ICSS frames: a 14-byte body
// whose length prefix declares a 1 GiB payload, and a CRC-valid frame
// whose few dozen payload bytes declare a 16M-instruction graph.
func craftedSnapshots() (hugeLen, hugeGraph []byte) {
	hugeLen = append([]byte(nil), snapMagic[:]...)
	hugeLen = append(hugeLen, 0, 0, 0, 0) // checksum, never reached
	hugeLen = binary.AppendUvarint(hugeLen, maxSnapPayload)

	var payload bytes.Buffer
	bw := bufio.NewWriter(&payload)
	putSnapString(bw, "gcc")
	// seed, trace_len, warmup, dl1, window, wakeup, recovery,
	// window_insts, build ns, cycles
	for _, v := range []uint64{1, 1 << 24, 1, 2, 64, 0, 8, 0, 0, 0} {
		putSnapUv(bw, v)
	}
	bw.WriteByte(snapKindGraph)
	putSnapUv(bw, 1<<24)
	for _, v := range snapCfgFields(ooo.DefaultConfig().Graph) {
		putSnapUv(bw, uint64(v))
	}
	bw.Flush()
	var frame bytes.Buffer
	if err := writeSnapFrame(&frame, payload.Bytes()); err != nil {
		panic(err)
	}
	return hugeLen, frame.Bytes()
}

// allocBytes reports the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadSnapshotBoundsDeclaredLengths: lengths a frame declares but
// does not carry are rejected as client errors before anything is
// sized from them.
func TestReadSnapshotBoundsDeclaredLengths(t *testing.T) {
	hugeLen, hugeGraph := craftedSnapshots()
	for _, tc := range []struct {
		name string
		raw  []byte
	}{{"payload length", hugeLen}, {"instruction count", hugeGraph}} {
		var err error
		alloc := allocBytes(func() { _, err = readSnapshot(context.Background(), bytes.NewReader(tc.raw), nil) })
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Fatalf("%s (%d bytes): err %v, want a *ValidationError", tc.name, len(tc.raw), err)
		}
		if alloc >= 1<<20 {
			t.Fatalf("%s (%d bytes): decoder allocated %d bytes", tc.name, len(tc.raw), alloc)
		}
	}
}

// TestReadSnapshotReaderFailure: a reader that fails partway through
// a frame reports its own error, not a *ValidationError — a dropped
// connection is not malformed bytes.
func TestReadSnapshotReaderFailure(t *testing.T) {
	hugeLen, _ := craftedSnapshots()
	errDrop := errors.New("connection dropped")
	r := io.MultiReader(bytes.NewReader(hugeLen[:7]), iotest.ErrReader(errDrop))
	_, err := readSnapshot(context.Background(), r, nil)
	var verr *ValidationError
	if !errors.Is(err, errDrop) || errors.As(err, &verr) {
		t.Fatalf("got %v, want the reader's own error", err)
	}
}

// snapPayload strips the magic, checksum and length framing from a
// snapshot.
func snapPayload(frame []byte) []byte {
	_, n := binary.Uvarint(frame[9:])
	return frame[9+n:]
}

// FuzzReadSnapshot fuzzes the ICSS decoder behind POST /restore: for
// any input it must return a session or one of the three typed decode
// errors (*ValidationError, *SnapshotVersionError,
// *SnapshotChecksumError) without panicking, and allocate no more than
// snapAllocPerByte bytes per input byte plus snapAllocConst, whatever
// lengths the bytes declare. Each input is decoded twice: as a whole
// frame, and as a payload framed with its true checksum, so mutations
// reach the body decoder instead of stopping at the CRC.
func FuzzReadSnapshot(f *testing.F) {
	ctx := context.Background()
	e := New(Config{Workers: 1})
	f.Cleanup(e.Close)
	for _, spec := range []SessionSpec{
		{Bench: "gzip", Seed: 3, TraceLen: 300, Warmup: 200},
		{Bench: "gzip", Seed: 3, TraceLen: 300, Warmup: 200, WindowInsts: 128},
	} {
		key, err := e.Warm(ctx, spec)
		if err != nil {
			f.Fatal(err)
		}
		var snap bytes.Buffer
		if err := e.SnapshotSession(ctx, key, &snap); err != nil {
			f.Fatal(err)
		}
		f.Add(snap.Bytes())
		f.Add(snapPayload(snap.Bytes()))
		if spec.WindowInsts > 0 {
			v2 := denseV2Frame(e.sessionByKey(key), denseTable(f, spec))
			f.Add(v2)
			f.Add(snapPayload(v2))
		}
	}
	hugeLen, hugeGraph := craftedSnapshots()
	f.Add(hugeLen)
	f.Add(hugeGraph)
	f.Add(snapPayload(hugeGraph))
	f.Fuzz(func(t *testing.T, data []byte) {
		var framed bytes.Buffer
		if err := writeSnapFrame(&framed, data); err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{data, framed.Bytes()} {
			var err error
			alloc := allocBytes(func() { _, err = readSnapshot(ctx, bytes.NewReader(in), nil) })
			if limit := snapAllocPerByte*uint64(len(in)) + snapAllocConst; alloc > limit {
				t.Fatalf("decoding %d bytes allocated %d, limit %d", len(in), alloc, limit)
			}
			var bad *ValidationError
			var ver *SnapshotVersionError
			var crc *SnapshotChecksumError
			if err != nil && !errors.As(err, &bad) && !errors.As(err, &ver) && !errors.As(err, &crc) {
				t.Fatalf("decoding %d bytes: untyped error %T: %v", len(in), err, err)
			}
		}
	})
}
