package daemon

// Tests for the replication plane — the shard-side HTTP surface the
// sharding router drives. The error mapping matters as much as the
// happy path: the router distinguishes "replica runs an older codec"
// (426, stop pushing) from "bytes damaged in transit" (422, retry),
// so those statuses are contract, not decoration.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"icost/internal/engine"
	"icost/internal/fleet"
	"icost/internal/leakcheck"
)

// startShard boots one daemon handler over a real engine.
func startShard(t *testing.T) (*engine.Engine, *httptest.Server) {
	t.Helper()
	e := engine.New(engine.Config{Workers: 1})
	srv := httptest.NewServer(NewHandler(e, fleet.NewAggregator(fleet.Config{}), Options{}))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return e, srv
}

// TestReplicationPlaneRoundTrip: /snapshot streams a built session
// with its install generation in the header, /restore installs it on
// a second shard, and /sessions reports the copy.
func TestReplicationPlaneRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	e1, srv1 := startShard(t)
	_, srv2 := startShard(t)

	key, err := e1.Warm(t.Context(), engine.SessionSpec{Bench: "gzip", TraceLen: 3000, Warmup: 1000})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv1.URL + "/snapshot?session=" + key)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot pull: status %d, err %v", resp.StatusCode, err)
	}
	gen, err := strconv.ParseUint(resp.Header.Get(GenerationHeader), 10, 64)
	if err != nil || gen == 0 {
		t.Fatalf("generation header %q unusable: %v", resp.Header.Get(GenerationHeader), err)
	}

	resp, err = http.Post(srv2.URL+"/restore", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d: %s", resp.StatusCode, out)
	}

	resp, err = http.Get(srv2.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Sessions []engine.SessionInfo `json:"sessions"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Sessions) != 1 || listing.Sessions[0].Key != key {
		t.Fatalf("replica sessions = %+v, want the restored key %s", listing.Sessions, key)
	}
	if listing.Sessions[0].Generation != gen {
		t.Fatalf("replica generation %d, want the primary's %d", listing.Sessions[0].Generation, gen)
	}

	// Pulling an unbuilt session is a clean 404.
	resp, err = http.Get(srv1.URL + "/snapshot?session=0000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session snapshot: status %d, want 404", resp.StatusCode)
	}
}

// TestRestoreErrorStatuses: the typed snapshot decode errors map to
// distinct, router-distinguishable statuses — codec version to 426,
// checksum damage to 422 — and neither installs anything.
func TestRestoreErrorStatuses(t *testing.T) {
	leakcheck.Check(t)
	e1, srv1 := startShard(t)
	e2, srv2 := startShard(t)

	key, err := e1.Warm(t.Context(), engine.SessionSpec{Bench: "gzip", TraceLen: 3000, Warmup: 1000})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv1.URL + "/snapshot?session=" + key)
	if err != nil {
		t.Fatal(err)
	}
	good, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot pull: status %d, err %v", resp.StatusCode, err)
	}

	push := func(raw []byte) int {
		t.Helper()
		resp, err := http.Post(srv2.URL+"/restore", "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	future := append([]byte(nil), good...)
	future[4] = 0x7f // codec version byte
	if got := push(future); got != http.StatusUpgradeRequired {
		t.Fatalf("future codec version: status %d, want 426", got)
	}

	damaged := append([]byte(nil), good...)
	damaged[len(damaged)-1] ^= 0x01
	if got := push(damaged); got != http.StatusUnprocessableEntity {
		t.Fatalf("damaged payload: status %d, want 422", got)
	}

	if m := e2.Metrics(); m.SessionsLive != 0 {
		t.Fatalf("rejected snapshots left %d live sessions", m.SessionsLive)
	}
}

// lyingSnapshots hand-encodes two ICSS v4 frames whose declared
// lengths outrun their bytes: a 14-byte body whose length prefix
// claims a 1 GiB payload, and a checksum-valid frame whose few dozen
// payload bytes claim all 256 memo entries and carry none.
func lyingSnapshots() map[string][]byte {
	magic := []byte{'I', 'C', 'S', 'S', 4}
	hugeLen := append(append(magic[:5:5], 0, 0, 0, 0), binary.AppendUvarint(nil, 1<<30)...)

	p := append(binary.AppendUvarint(nil, 3), "gcc"...)
	// seed, trace_len, warmup, dl1, window, wakeup, recovery,
	// window_insts, build ns, cycles, insts, windows, peak bytes, and
	// the entry count.
	for _, v := range []uint64{1, 1 << 24, 1, 2, 64, 0, 8, 4096, 0, 1, 1 << 24, 4096, 1 << 20, 256} {
		p = binary.AppendUvarint(p, v)
	}
	hugeMemo := append(magic[:5:5], 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(hugeMemo[5:], crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
	hugeMemo = append(binary.AppendUvarint(hugeMemo, uint64(len(p))), p...)
	return map[string][]byte{"payload length": hugeLen, "entry count": hugeMemo}
}

// TestRestoreRejectsLyingLengths: a /restore body that declares more
// than it carries is the client's error (400), found before the shard
// sizes anything from the declared lengths.
func TestRestoreRejectsLyingLengths(t *testing.T) {
	leakcheck.Check(t)
	e := engine.New(engine.Config{Workers: 1})
	defer e.Close()
	h := NewHandler(e, fleet.NewAggregator(fleet.Config{}), Options{})
	for name, raw := range lyingSnapshots() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/restore", bytes.NewReader(raw))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s (%d bytes): status %d, want 400: %s", name, len(raw), rec.Code, rec.Body)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s (%d bytes): /restore allocated %d bytes", name, len(raw), alloc)
		}
	}
	if m := e.Metrics(); m.SessionsLive != 0 {
		t.Fatalf("rejected snapshots left %d live sessions", m.SessionsLive)
	}
}

// malformedSnapshots hand-encodes six /restore bodies that are not
// snapshots: a wrong magic, a 2-byte body, and four checksum-valid
// ICSS v4 frames whose payloads break the format — a run shape
// disagreeing with the spec's trace_len, 257 memo entries, entries
// whose base lane disagrees with the cycles, and a well-formed payload
// followed by one more byte.
func malformedSnapshots() map[string][]byte {
	const cycles = 5000
	frame := func(p []byte) []byte {
		f := []byte{'I', 'C', 'S', 'S', 4, 0, 0, 0, 0}
		binary.LittleEndian.PutUint32(f[5:], crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
		return append(binary.AppendUvarint(f, uint64(len(p))), p...)
	}
	// table is a payload: the spec (bench gcc; seed, trace_len 1000,
	// warmup, dl1, window, wakeup, recovery, window_insts 256), the
	// build ns, the cycles, the run shape (insts, windows, peak bytes),
	// then n entries, flags 0..n-1, the first one base.
	table := func(insts uint64, n int, base uint64) []byte {
		p := append(binary.AppendUvarint(nil, 3), "gcc"...)
		for _, v := range []uint64{1, 1000, 100, 2, 64, 0, 8, 256, 0, cycles, insts, 4, 0, uint64(n), 0, base} {
			p = binary.AppendUvarint(p, v)
		}
		for i := 1; i < n; i++ {
			p = binary.AppendUvarint(binary.AppendUvarint(p, uint64(i)), cycles-uint64(i))
		}
		return p
	}
	return map[string][]byte{
		"magic ICSX":            append([]byte("ICSX\x04"), make([]byte, 5)...),
		"2-byte body":           []byte("IC"),
		"insts != trace_len":    frame(table(999, 1, cycles)),
		"257 entries":           frame(table(1000, 257, cycles)),
		"base lane != cycles":   frame(table(1000, 256, cycles+1)),
		"trailing payload byte": frame(append(table(1000, 256, cycles), 0)),
	}
}

// TestRestoreRejectsMalformedSnapshots: bytes that do not decode as a
// snapshot are the client's error (400), whatever part of the frame
// or payload is wrong, and install nothing.
func TestRestoreRejectsMalformedSnapshots(t *testing.T) {
	leakcheck.Check(t)
	e := engine.New(engine.Config{Workers: 1})
	defer e.Close()
	h := NewHandler(e, fleet.NewAggregator(fleet.Config{}), Options{})
	for name, raw := range malformedSnapshots() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/restore", bytes.NewReader(raw)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, rec.Code, rec.Body)
		}
	}
	if m := e.Metrics(); m.SessionsLive != 0 {
		t.Fatalf("rejected snapshots left %d live sessions", m.SessionsLive)
	}
}

// malformedStreams hand-encodes four ICFS bodies, each well framed up
// to its one bad field: a batch with a bad sample magic, a batch whose
// detailed sample has opcode 255, a batch whose instruction-count
// varint exceeds its bound, and a header whose seed varint overflows
// 64 bits.
func malformedStreams() map[string][]byte {
	str := func(b []byte, s string) []byte {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	header := func(seed []byte) []byte {
		b := append(str([]byte("ICFS\x01"), "gzip"), seed...)
		return str(str(b, "prod"), "h")
	}
	batch := func(payload []byte) []byte {
		b := append(header(binary.AppendUvarint(nil, 42)), 'B')
		b = append(binary.AppendUvarint(b, uint64(len(payload))), payload...)
		return binary.AppendUvarint(append(b, 'E'), 1)
	}
	// 0 instructions, 0 signature samples, 1 detailed sample: its PC,
	// then its opcode.
	opcode := append([]byte("ICSP\x01\x00\x00\x01"), make([]byte, 8)...)
	return map[string][]byte{
		"bad sample magic": batch([]byte("XXXX\x01")),
		"opcode 255":       batch(append(opcode, 255)),
		"varint bound":     batch(binary.AppendUvarint([]byte("ICSP\x01"), 1<<32)),
		"seed overflow":    header(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)),
	}
}

// TestIngestRejectsMalformedBytes: an /ingest body that decodes to
// nonsense is the client's error (400), not the server's (500).
func TestIngestRejectsMalformedBytes(t *testing.T) {
	leakcheck.Check(t)
	e := engine.New(engine.Config{Workers: 1})
	defer e.Close()
	h := NewHandler(e, fleet.NewAggregator(fleet.Config{}), Options{})
	for name, raw := range malformedStreams() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(raw)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, rec.Code, rec.Body)
		}
	}
}
