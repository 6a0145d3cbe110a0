package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"icost/internal/depgraph"
	"icost/internal/faultinject"
)

// Durable session snapshots. A built session is an expensive
// simulation, but every query it can answer needs only the normalized
// spec, the simulated cycles and the analyzer memo's entries: a later
// miss folds the stream again either way. The snapshot encodes exactly
// that closure, so a daemon restart restores its working set in
// milliseconds instead of re-simulating it:
//
//	magic    "ICSS" + version byte
//	checksum 4-byte little-endian CRC-32C of the payload
//	length   uvarint payload byte count
//	payload  normalized spec, build wall time, simulated cycles, the
//	         build pass's shape (instructions, blocks, peak bytes),
//	         then every binary (flags, time) entry the memo holds, in
//	         increasing flag order, the base entry among them
//
// A snapshot carries no block log, so a restored session's first miss
// simulates and records one. Version 4 dropped the whole-graph kind and
// the kind byte with it; older versions are a *SnapshotVersionError,
// and their sessions rebuild on demand. The encoding is canonical: the
// same session always produces the same bytes, so a snapshot of a
// restored session is bit-identical to the snapshot it came from
// (property-tested in snapshot_test.go). The checksum makes corruption
// a clean load error, never a corrupt memo answering queries.

// Snapshot format versions. Adding a version means adding a constant
// here AND a dispatch case in decodeSnapshot — codecver enforces both,
// and that the encoder stamps the newest version.
//
//lint:codec icss
const (
	snapVersion4       = 4 // one session kind: spec, cycles, run shape, binary memo entries
	snapVersionCurrent = snapVersion4
)

// snapMagic is the header every written snapshot starts with: the
// four ICSS bytes plus the current format version.
//
//lint:codec-encode icss
var snapMagic = [5]byte{'I', 'C', 'S', 'S', snapVersionCurrent}

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// maxSnapPayload bounds a snapshot payload (a session's encodes to at
// most a few kilobytes; 1 GiB is a generous corruption guard).
const maxSnapPayload = 1 << 30

// SnapshotSession encodes the built session identified by key into w.
// The session stays live — encoding only reads its spec, shape and a
// copy of the memo's entries, so snapshots can be taken while queries
// run.
func (e *Engine) SnapshotSession(ctx context.Context, key string, w io.Writer) error {
	s := e.sessionByKey(key)
	if s == nil {
		return fmt.Errorf("engine: no built session %q to snapshot", key)
	}
	return writeSnapshot(ctx, w, s)
}

// sessionByKey returns the completed session for key, or nil.
func (e *Engine) sessionByKey(key string) *session {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	el, ok := e.store.items[key]
	if !ok {
		return nil
	}
	entry := el.Value.(*sessionEntry)
	select {
	case <-entry.ready:
		return entry.sess
	default:
		return nil
	}
}

func writeSnapshot(ctx context.Context, w io.Writer, s *session) error {
	if err := faultinject.Hit(ctx, faultinject.FleetSnapshot); err != nil {
		return err
	}
	var payload bytes.Buffer
	bw := bufio.NewWriter(&payload)

	sp := s.spec
	putSnapString(bw, sp.Bench)
	putSnapUv(bw, sp.Seed)
	putSnapUv(bw, uint64(sp.TraceLen))
	putSnapUv(bw, uint64(sp.Warmup))
	putSnapUv(bw, uint64(sp.DL1Latency))
	putSnapUv(bw, uint64(sp.Window))
	putSnapUv(bw, uint64(sp.WakeupExtra))
	putSnapUv(bw, uint64(sp.BranchRecovery))
	putSnapUv(bw, uint64(sp.WindowInsts))
	putSnapUv(bw, uint64(s.built))
	putSnapUv(bw, uint64(s.cycles))
	putSnapUv(bw, uint64(s.insts))
	putSnapUv(bw, uint64(s.windows))
	putSnapUv(bw, uint64(s.peakBytes))
	known := s.analyzer.Known()
	flags := make([]depgraph.Flags, 0, len(known))
	for f := range known {
		flags = append(flags, f)
	}
	slices.Sort(flags)
	putSnapUv(bw, uint64(len(flags)))
	for _, f := range flags {
		putSnapUv(bw, uint64(f))
		putSnapUv(bw, uint64(known[f]))
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return writeSnapFrame(w, payload.Bytes())
}

// writeSnapFrame wraps a finished payload in the magic + CRC + length
// framing.
func writeSnapFrame(w io.Writer, payload []byte) error {
	out := bufio.NewWriter(w)
	out.Write(snapMagic[:])
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.Checksum(payload, snapCRC))
	out.Write(crcb[:])
	putSnapUv(out, uint64(len(payload)))
	if _, err := out.Write(payload); err != nil {
		return err
	}
	return out.Flush()
}

// RestoreSession decodes one snapshot from r and installs it in the
// session store, returning the restored session's key. A session
// already live (or building) under the same key wins: the snapshot is
// decoded and discarded, and the live key is returned.
func (e *Engine) RestoreSession(ctx context.Context, r io.Reader) (string, error) {
	s, err := readSnapshot(ctx, r, &e.met, &e.logs)
	if err != nil {
		return "", err
	}
	e.installSession(s)
	return s.key, nil
}

// readSnapshot decodes one framed snapshot from r; met and logs are
// the engine's, for the restored session's passes. Bytes that end
// early or do not decode are the sender's malformed input and fail as
// a *ValidationError, an undecodable version as a
// *SnapshotVersionError, and a payload failing its checksum as a
// *SnapshotChecksumError; a reader that fails outright reports its
// own error.
func readSnapshot(ctx context.Context, r io.Reader, met *metrics, logs *logStore) (*session, error) {
	if err := faultinject.Hit(ctx, faultinject.FleetSnapshot); err != nil {
		return nil, err
	}
	src := &snapSource{r: r}
	s, err := decodeSnapshot(src, met, logs)
	if err != nil && src.err != nil {
		return nil, fmt.Errorf("engine: reading snapshot: %w", src.err)
	}
	return s, err
}

// snapSource remembers the first failure of the reader a snapshot
// arrives on, so a dropped connection is not mistaken for bytes that
// ended early.
type snapSource struct {
	r   io.Reader
	err error
}

func (s *snapSource) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err != nil && err != io.EOF && s.err == nil {
		s.err = err
	}
	return n, err
}

// decodeSnapshot decodes one framed snapshot, dispatching on the
// version byte: every declared snapVersion* constant has a case.
//
//lint:codec-decode icss
func decodeSnapshot(r io.Reader, met *metrics, logs *logStore) (*session, error) {
	hr := bufio.NewReader(r)
	var magic [5]byte
	if _, err := io.ReadFull(hr, magic[:]); err != nil {
		return nil, errValidation("engine: reading snapshot magic: %v", err)
	}
	if [4]byte{magic[0], magic[1], magic[2], magic[3]} != [4]byte{'I', 'C', 'S', 'S'} {
		return nil, errValidation("engine: bad snapshot magic %q", magic[:4])
	}
	switch version := magic[4]; version {
	case snapVersion4:
	default:
		return nil, &SnapshotVersionError{Version: version}
	}
	var crcb [4]byte
	if _, err := io.ReadFull(hr, crcb[:]); err != nil {
		return nil, errValidation("engine: reading snapshot checksum: %v", err)
	}
	plen, err := getSnapUv(hr, maxSnapPayload)
	if err != nil {
		return nil, err
	}
	// The declared length is the sender's claim, not an allocation
	// budget: the buffer grows only as payload bytes actually arrive.
	payload, err := io.ReadAll(io.LimitReader(hr, int64(plen)))
	if err != nil {
		return nil, fmt.Errorf("engine: reading snapshot payload: %w", err)
	}
	if uint64(len(payload)) != plen {
		return nil, errValidation("engine: snapshot truncated: %d of %d payload bytes", len(payload), plen)
	}
	if want, got := binary.LittleEndian.Uint32(crcb[:]), crc32.Checksum(payload, snapCRC); got != want {
		return nil, &SnapshotChecksumError{Want: want, Got: got}
	}

	br := bytes.NewReader(payload)
	var sp SessionSpec
	if sp.Bench, err = getSnapString(br); err != nil {
		return nil, err
	}
	if sp.Seed, err = getSnapUv(br, 1<<63); err != nil {
		return nil, err
	}
	for _, f := range []struct {
		dst *int
		max int64
	}{
		{&sp.TraceLen, maxSpecInsts}, {&sp.Warmup, maxSpecInsts}, {&sp.DL1Latency, maxSpecLatency},
		{&sp.Window, maxSpecInsts}, {&sp.WakeupExtra, maxSpecLatency}, {&sp.BranchRecovery, maxSpecLatency},
		{&sp.WindowInsts, maxSpecInsts},
	} {
		v, err := getSnapUv(br, uint64(f.max))
		if err != nil {
			return nil, err
		}
		*f.dst = int(v)
	}
	var hdr [5]uint64 // built ns, cycles, insts, windows, peak bytes
	for k, max := range []uint64{1 << 62, 1 << 62, 1 << 40, 1 << 40, 1 << 50} {
		if hdr[k], err = getSnapUv(br, max); err != nil {
			return nil, err
		}
	}
	spec, err := sp.normalize()
	if err != nil {
		return nil, errValidation("engine: snapshot spec: %v", err)
	}
	if hdr[2] != uint64(spec.TraceLen) {
		return nil, errValidation("engine: snapshot folded %d instructions, spec says %d", hdr[2], spec.TraceLen)
	}
	entries, err := getSnapUv(br, 1<<depgraph.NumFlags)
	if err != nil {
		return nil, err
	}
	known := make(map[depgraph.Flags]int64, entries)
	var prev uint64
	for i := uint64(0); i < entries; i++ {
		f, err := getSnapUv(br, uint64(depgraph.AllFlags))
		if err != nil {
			return nil, err
		}
		if i > 0 && f <= prev {
			return nil, errValidation("engine: snapshot entry flags %d follow %d: not strictly increasing", f, prev)
		}
		t, err := getSnapUv(br, 1<<62)
		if err != nil {
			return nil, err
		}
		known[depgraph.Flags(f)] = int64(t)
		prev = f
	}
	// The base entry is the simulated cycle count by the passes'
	// self-check; re-verify so a corrupted-but-CRC-valid body (or a
	// hand-edited one) cannot answer queries.
	cycles := int64(hdr[1])
	if base, ok := known[0]; !ok {
		return nil, errValidation("engine: snapshot has no base entry")
	} else if base != cycles {
		return nil, errValidation("engine: snapshot base lane %d != cycles %d", base, cycles)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, errValidation("engine: snapshot has trailing payload bytes")
	}
	key, _ := spec.Key()
	return newSession(&session{
		key:       key,
		spec:      spec,
		built:     time.Duration(hdr[0]),
		cycles:    cycles,
		insts:     int(hdr[2]),
		windows:   int(hdr[3]),
		peakBytes: int64(hdr[4]),
		met:       met,
		logs:      logs,
	}, known), nil
}

// installSession publishes a restored session, respecting the store's
// LRU bound and single-flight discipline: if the key is already live
// or building, the restored copy is discarded (the store's version is
// at least as fresh). Returns whether the session was installed.
func (e *Engine) installSession(s *session) bool {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	entry, builder := e.store.entry(s.key, time.Now())
	if !builder {
		return false
	}
	entry.sess = s
	entry.gen = e.gen.Add(1)
	close(entry.ready)
	e.met.sessionsBuilt.Add(1)
	e.evictLocked()
	return true
}

// SessionInfo describes one resident, fully built session: its
// content-hash key and the engine-wide install generation (monotone; a
// higher generation under the same key means the entry was replaced).
type SessionInfo struct {
	Key        string `json:"key"`
	Generation uint64 `json:"generation"`
}

// Sessions lists the resident built sessions, most recently used
// first. Entries still building or failed are omitted — only sessions
// that can be snapshotted appear.
func (e *Engine) Sessions() []SessionInfo {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	var out []SessionInfo
	for el := e.store.ll.Front(); el != nil; el = el.Next() {
		entry := el.Value.(*sessionEntry)
		select {
		case <-entry.ready:
			if entry.sess != nil {
				out = append(out, SessionInfo{Key: entry.key, Generation: entry.gen})
			}
		default:
		}
	}
	return out
}

// SessionGeneration returns the install generation of the built
// session under key, with ok=false when no completed session is
// resident.
func (e *Engine) SessionGeneration(key string) (uint64, bool) {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	el, ok := e.store.items[key]
	if !ok {
		return 0, false
	}
	entry := el.Value.(*sessionEntry)
	select {
	case <-entry.ready:
		if entry.sess != nil {
			return entry.gen, true
		}
	default:
	}
	return 0, false
}

// SaveSnapshots writes every built session to dir, one atomically
// renamed <key>.icss file each, and reports how many were saved. Call
// before Close, which empties the session store.
func (e *Engine) SaveSnapshots(ctx context.Context, dir string) (int, error) {
	e.storeMu.Lock()
	sessions := e.store.sessions()
	e.storeMu.Unlock()
	if len(sessions) == 0 {
		return 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	saved := 0
	for _, s := range sessions {
		if err := ctx.Err(); err != nil {
			return saved, err
		}
		if err := e.saveOne(ctx, dir, s); err != nil {
			return saved, err
		}
		saved++
		e.met.snapshotsSaved.Add(1)
	}
	return saved, nil
}

func (e *Engine) saveOne(ctx context.Context, dir string, s *session) error {
	final := filepath.Join(dir, s.key+".icss")
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := writeSnapshot(ctx, f, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, final)
}

// LoadSnapshots restores every *.icss snapshot under dir into the
// session store and reports how many loaded. Individual corrupt or
// stale files are skipped (counted in the snapshot-load-error metric)
// rather than failing startup; a missing directory is zero sessions,
// not an error.
func (e *Engine) LoadSnapshots(ctx context.Context, dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	loaded := 0
	for _, ent := range entries {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".icss" {
			continue
		}
		if err := ctx.Err(); err != nil {
			return loaded, err
		}
		if e.loadOne(ctx, filepath.Join(dir, ent.Name())) {
			loaded++
		}
	}
	return loaded, nil
}

func (e *Engine) loadOne(ctx context.Context, path string) bool {
	f, err := os.Open(path)
	if err != nil {
		e.met.snapshotLoadErrors.Add(1)
		return false
	}
	defer f.Close()
	s, err := readSnapshot(ctx, f, &e.met, &e.logs)
	if err != nil {
		e.met.snapshotLoadErrors.Add(1)
		return false
	}
	if !e.installSession(s) {
		return false
	}
	e.met.snapshotsLoaded.Add(1)
	return true
}

func putSnapUv(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func getSnapUv(r io.ByteReader, max uint64) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, errValidation("engine: reading snapshot varint: %v", err)
	}
	if v > max {
		return 0, errValidation("engine: snapshot field %d exceeds bound %d", v, max)
	}
	return v, nil
}

func putSnapString(w *bufio.Writer, s string) {
	putSnapUv(w, uint64(len(s)))
	w.WriteString(s)
}

func getSnapString(r *bytes.Reader) (string, error) {
	n, err := getSnapUv(r, 1<<12)
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", errValidation("engine: reading snapshot string: %v", err)
	}
	return string(b), nil
}
