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
)

// Allocation bound for one decode: the payload buffer grows with the
// bytes that arrive, and the memo holds at most 256 entries, so
// decoding stays within a small multiple of the input plus fixed
// reader and session overhead.
const (
	snapAllocPerByte = 16
	snapAllocConst   = 64 << 10
)

// craftedSnapshots returns two hostile ICSS frames: a 14-byte body
// whose length prefix declares a 1 GiB payload, and a CRC-valid frame
// whose few dozen payload bytes declare all 256 memo entries and carry
// none.
func craftedSnapshots() (hugeLen, hugeMemo []byte) {
	hugeLen = append([]byte(nil), snapMagic[:]...)
	hugeLen = append(hugeLen, 0, 0, 0, 0) // checksum, never reached
	hugeLen = binary.AppendUvarint(hugeLen, maxSnapPayload)

	var payload bytes.Buffer
	bw := bufio.NewWriter(&payload)
	putSnapString(bw, "gcc")
	// seed, trace_len, warmup, dl1, window, wakeup, recovery,
	// window_insts, build ns, cycles, insts, windows, peak bytes,
	// entries
	for _, v := range []uint64{1, 1 << 24, 1, 2, 64, 0, 8, 4096, 0, 1, 1 << 24, 4096, 1 << 20, 256} {
		putSnapUv(bw, v)
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
	hugeLen, hugeMemo := craftedSnapshots()
	for _, tc := range []struct {
		name string
		raw  []byte
	}{{"payload length", hugeLen}, {"entry count", hugeMemo}} {
		var err error
		alloc := allocBytes(func() { _, err = readSnapshot(context.Background(), bytes.NewReader(tc.raw), nil, nil) })
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
	_, err := readSnapshot(context.Background(), r, nil, nil)
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
	// Seeds: two sessions' frames and bare payloads (a base-only build
	// in default blocks, and one whose breakdown filled 16 entries in
	// 128-instruction blocks); a machine outside the carry argument; a
	// version-3 frame; and the two hostile frames with one's payload.
	for _, q := range []Query{
		{Session: SessionSpec{Bench: "gzip", Seed: 3, TraceLen: 300, Warmup: 200}, Op: OpExecTime},
		{Session: SessionSpec{Bench: "gzip", Seed: 3, TraceLen: 300, Warmup: 200, WindowInsts: 128}, Op: OpBreakdown},
		{Session: SessionSpec{Bench: "mcf", Seed: 4, TraceLen: 300, Warmup: 200, WakeupExtra: 100}, Op: OpExecTime},
	} {
		resp, err := e.Query(ctx, q)
		if err != nil {
			f.Fatal(err)
		}
		var snap bytes.Buffer
		if err := e.SnapshotSession(ctx, resp.SessionKey, &snap); err != nil {
			f.Fatal(err)
		}
		f.Add(snap.Bytes())
		if q.Session.WakeupExtra == 0 {
			f.Add(snapPayload(snap.Bytes()))
		} else {
			f.Add(v3Frame(e.sessionByKey(resp.SessionKey)))
		}
	}
	hugeLen, hugeMemo := craftedSnapshots()
	f.Add(hugeLen)
	f.Add(hugeMemo)
	f.Add(snapPayload(hugeMemo))
	f.Fuzz(func(t *testing.T, data []byte) {
		var framed bytes.Buffer
		if err := writeSnapFrame(&framed, data); err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{data, framed.Bytes()} {
			var err error
			alloc := allocBytes(func() { _, err = readSnapshot(ctx, bytes.NewReader(in), nil, nil) })
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
