package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"icost/internal/profiler"
)

// Binary ingestion stream: what a host's collection agent ships to
// the service. The payload reuses the profiler's sample framing
// (WriteSamples/ReadSamples) unchanged — each batch is one PMU buffer
// drain — wrapped in a versioned stream header that names the binary
// and the host, so collection agents and the service can evolve
// independently of the sample format.
//
//	magic  "ICFS" + version byte
//	header binary name, seed, host group, host id (uvarint-length strings)
//	record 'B' + uvarint payload length + WriteSamples payload   (repeated)
//	record 'E' + uvarint batch count                             (trailer)
//
// The trailer's batch count lets the reader distinguish a complete
// stream from one truncated mid-flight (a host that died while
// sending); truncated streams keep every batch that arrived whole —
// lossy collection is the §5 contract.

// Stream format versions. A new version needs a constant here AND a
// dispatch case in ReadStream — codecver enforces both, and that the
// writer stamps the newest version.
//
//lint:codec icfs
const (
	streamVersion1       = 1 // initial wire format
	streamVersionCurrent = streamVersion1
)

// streamMagic is the header every written stream starts with: the
// four ICFS bytes plus the current format version.
//
//lint:codec-encode icfs
var streamMagic = [5]byte{'I', 'C', 'F', 'S', streamVersionCurrent}

const (
	recBatch = 'B'
	recEnd   = 'E'

	// maxNameLen bounds the header strings; maxBatchLen bounds one
	// batch's encoded payload (64 MiB is far beyond any real PMU
	// drain).
	maxNameLen  = 1 << 12
	maxBatchLen = 1 << 26
)

// Header names the stream's origin: which binary the samples observe,
// which slice of the fleet sent them, and which host.
type Header struct {
	Binary string
	Seed   uint64
	Group  string
	Host   string
}

// Key returns the aggregate key the stream's batches merge into.
func (h Header) Key() Key { return Key{Binary: h.Binary, Seed: h.Seed, Group: h.Group} }

// validate rejects malformed headers before any batch is parsed.
func (h Header) validate() error {
	switch {
	case h.Binary == "":
		return errValidation("fleet: stream header needs a binary name")
	case h.Group == "":
		return errValidation("fleet: stream header needs a host group")
	case len(h.Binary) > maxNameLen || len(h.Group) > maxNameLen || len(h.Host) > maxNameLen:
		return errValidation("fleet: stream header string exceeds %d bytes", maxNameLen)
	}
	return nil
}

// StreamWriter frames sample batches onto one ingestion stream.
type StreamWriter struct {
	w       *bufio.Writer
	buf     bytes.Buffer
	batches int
	closed  bool
}

// NewStreamWriter writes the stream header and returns a writer ready
// for batches. Close writes the trailer.
func NewStreamWriter(w io.Writer, h Header) (*StreamWriter, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(streamMagic[:]); err != nil {
		return nil, err
	}
	writeString(bw, h.Binary)
	putUvarint(bw, h.Seed)
	writeString(bw, h.Group)
	writeString(bw, h.Host)
	return &StreamWriter{w: bw}, nil
}

// WriteBatch frames one sample batch.
func (sw *StreamWriter) WriteBatch(s *profiler.Samples) error {
	if sw.closed {
		return fmt.Errorf("fleet: WriteBatch after Close")
	}
	sw.buf.Reset()
	if err := profiler.WriteSamples(&sw.buf, s); err != nil {
		return err
	}
	if sw.buf.Len() > maxBatchLen {
		return fmt.Errorf("fleet: batch of %d bytes exceeds %d", sw.buf.Len(), maxBatchLen)
	}
	sw.w.WriteByte(recBatch)
	putUvarint(sw.w, uint64(sw.buf.Len()))
	if _, err := sw.w.Write(sw.buf.Bytes()); err != nil {
		return err
	}
	sw.batches++
	return nil
}

// Close writes the trailer and flushes. The writer is unusable after.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	sw.w.WriteByte(recEnd)
	putUvarint(sw.w, uint64(sw.batches))
	return sw.w.Flush()
}

// WriteStream is the one-shot convenience: header, every batch, and
// the trailer in one call.
func WriteStream(w io.Writer, h Header, batches []*profiler.Samples) error {
	sw, err := NewStreamWriter(w, h)
	if err != nil {
		return err
	}
	for _, s := range batches {
		if err := sw.WriteBatch(s); err != nil {
			return err
		}
	}
	return sw.Close()
}

// framePool recycles ReadStream's frame buffers: a stream starts from
// the capacity an earlier stream's frames grew one to, instead of
// regrowing an empty buffer by doubling. Decoded batches never alias
// the buffer.
var framePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ReadStream decodes an ingestion stream, invoking fn with the
// stream's header and each batch as it arrives (streaming — the whole
// stream is never buffered). It returns the header, the number of
// complete batches delivered, and the first error: a fn error aborts
// the stream, a truncation after at least one whole batch is reported
// alongside the batches already delivered. Malformed bytes fail with
// a *ValidationError; a truncation carries io.EOF or
// io.ErrUnexpectedEOF. The header is valid whenever err is nil or the
// failure happened after the header parsed.
func ReadStream(r io.Reader, fn func(Header, *profiler.Samples) error) (Header, int, error) {
	br := bufio.NewReader(r)
	h, err := readHeader(br)
	if err != nil {
		return h, 0, err
	}

	// One frame buffer serves every batch, and then the next stream
	// (framePool). It grows as frame bytes arrive, never to a declared
	// length alone.
	frame := framePool.Get().(*bytes.Buffer)
	defer framePool.Put(frame)
	n := 0
	for {
		rec, err := br.ReadByte()
		if err != nil {
			return h, n, fmt.Errorf("fleet: stream truncated after %d batches: %w", n, err)
		}
		switch rec {
		case recBatch:
			plen, err := getUvarint(br, maxBatchLen)
			if err != nil {
				return h, n, err
			}
			frame.Reset()
			if _, err := frame.ReadFrom(io.LimitReader(br, int64(plen))); err != nil {
				return h, n, fmt.Errorf("fleet: batch %d: %w", n, err)
			}
			if uint64(frame.Len()) != plen {
				return h, n, fmt.Errorf("fleet: stream truncated in batch %d (%d of %d bytes): %w",
					n, frame.Len(), plen, io.ErrUnexpectedEOF)
			}
			// A frame must be exactly the canonical encoding of its
			// batch: no bytes past it and no padded varints, or length
			// and payload disagree.
			s, err := profiler.DecodeSamples(frame.Bytes())
			if err != nil {
				return h, n, malformed(err, "fleet: batch %d", n)
			}
			if err := fn(h, s); err != nil {
				return h, n, err
			}
			n++
		case recEnd:
			want, err := getUvarint(br, 1<<32)
			if err != nil {
				return h, n, err
			}
			if int(want) != n {
				return h, n, errValidation("fleet: trailer says %d batches, stream carried %d", want, n)
			}
			return h, n, nil
		default:
			return h, n, errValidation("fleet: unknown record type %#x", rec)
		}
	}
}

// readHeader decodes the stream magic, version and header from br,
// leaving it positioned at the first record byte. Both ReadStream and
// PeekHeader enter the format through it, so the version dispatch
// lives here.
//
//lint:codec-decode icfs
func readHeader(br *bufio.Reader) (Header, error) {
	var h Header
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return h, errValidation("fleet: reading stream magic: %v", err)
	}
	if [4]byte{magic[0], magic[1], magic[2], magic[3]} != [4]byte{'I', 'C', 'F', 'S'} {
		return h, errValidation("fleet: bad stream magic %q", magic[:4])
	}
	switch magic[4] {
	case streamVersion1:
	default:
		return h, errValidation("fleet: unsupported stream version %d", magic[4])
	}
	var err error
	if h.Binary, err = readString(br); err != nil {
		return h, err
	}
	if h.Seed, err = getUvarint(br, 1<<63); err != nil {
		return h, err
	}
	if h.Group, err = readString(br); err != nil {
		return h, err
	}
	if h.Host, err = readString(br); err != nil {
		return h, err
	}
	if err := h.validate(); err != nil {
		return h, err
	}
	return h, nil
}

// PeekHeader decodes just the stream header from r without touching
// any batch payload. The sharding router uses it to pick the backend
// an /ingest body belongs to — the aggregate key is in the header, so
// routing never pays for sample decoding — before forwarding the
// unconsumed bytes verbatim.
func PeekHeader(r io.Reader) (Header, error) {
	return readHeader(bufio.NewReader(r))
}

func writeString(w *bufio.Writer, s string) {
	putUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readString(r *bufio.Reader) (string, error) {
	n, err := getUvarint(r, maxNameLen)
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("fleet: reading header string: %w", err)
	}
	return string(b), nil
}

func putUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func getUvarint(r *bufio.Reader, max uint64) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, malformed(err, "fleet: reading varint")
	}
	if v > max {
		return 0, errValidation("fleet: field %d exceeds bound %d", v, max)
	}
	return v, nil
}

// malformed classifies a failure to decode stream bytes. A truncation
// keeps its io.EOF or io.ErrUnexpectedEOF chain, so a reader can tell a
// stream cut short from one that arrived whole; anything else — a bad
// sample magic, an unknown opcode, a field past its bound, a varint
// overflowing 64 bits — is the sender's malformed input, a
// *ValidationError.
func malformed(err error, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%s: %w", msg, err)
	}
	return errValidation("%s: %v", msg, err)
}
