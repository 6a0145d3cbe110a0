package profiler

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"icost/internal/cache"
	"icost/internal/isa"
)

// Binary sample format: what the performance-monitoring hardware's
// buffer drains would contain on a real system, so collection and
// analysis can run on different machines (or at different times).
// Little-endian; versioned by the magic's last byte.

var sampleMagic = [5]byte{'I', 'C', 'S', 'P', 1}

// WriteSamples serializes s.
func WriteSamples(w io.Writer, s *Samples) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(sampleMagic[:]); err != nil {
		return err
	}
	putUv(bw, uint64(s.Insts))

	putUv(bw, uint64(len(s.Sigs)))
	for _, sig := range s.Sigs {
		putU64(bw, uint64(sig.StartPC))
		putUv(bw, uint64(len(sig.Bits)))
		for _, b := range sig.Bits {
			bw.WriteByte(byte(b))
		}
	}

	// Details, in sorted PC order for deterministic output.
	pcs := make([]isa.Addr, 0, len(s.Details))
	total := 0
	for pc, ds := range s.Details {
		pcs = append(pcs, pc)
		total += len(ds)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	putUv(bw, uint64(total))
	for _, pc := range pcs {
		for _, d := range s.Details[pc] {
			putU64(bw, uint64(d.PC))
			bw.WriteByte(byte(d.Info.Op))
			putUv(bw, uint64(d.Info.SIdx+1)) // -1 becomes 0
			var flags byte
			if d.Info.Mispredict {
				flags |= 1
			}
			if d.Info.DTLBMiss {
				flags |= 2
			}
			if d.Info.ITLBMiss {
				flags |= 4
			}
			if d.Taken {
				flags |= 8
			}
			bw.WriteByte(flags)
			bw.WriteByte(byte(d.Info.DataLevel))
			bw.WriteByte(byte(d.Info.ILevel))
			putUv(bw, uint64(d.RELat))
			putU64(bw, uint64(d.Target))
			putUv(bw, uint64(d.PPDelta))
			putUv(bw, uint64(len(d.Before)))
			for _, b := range d.Before {
				bw.WriteByte(byte(b))
			}
			putUv(bw, uint64(len(d.After)))
			for _, b := range d.After {
				bw.WriteByte(byte(b))
			}
		}
	}
	return bw.Flush()
}

// ReadSamples deserializes samples written by WriteSamples. It reads r
// to its end; bytes past the samples are ignored.
func ReadSamples(r io.Reader) (*Samples, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	d := sampleDecoder{b: b}
	return d.samples()
}

// DecodeSamples decodes one sample encoding that fills b exactly and
// whose varints are all minimal, so the decoded samples' canonical
// encoding (WriteSamples) is exactly len(b) bytes long — what a framed
// batch is checked against without re-encoding it. Running out of
// bytes is an io.ErrUnexpectedEOF (or io.EOF) error, as in ReadSamples.
func DecodeSamples(b []byte) (*Samples, error) {
	d := sampleDecoder{b: b, exact: true}
	s, err := d.samples()
	if err != nil {
		return nil, err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("profiler: %d bytes past the samples", len(b)-d.off)
	}
	return s, nil
}

// sampleDecoder reads the sample format from a byte slice. In exact
// mode a varint with redundant continuation bytes is malformed: every
// other field has a fixed width, so the bytes consumed are then those
// of the canonical encoding.
type sampleDecoder struct {
	b     []byte
	off   int
	exact bool
	// bits backs every decoded signature-bit slice: they total fewer
	// bytes than the input, so one allocation of that size serves them
	// all.
	bits []SigBits
}

// minDetailBytes is the shortest encoding of one detailed sample.
const minDetailBytes = 8 + 1 + 1 + 1 + 2 + 1 + 8 + 1 + 1 + 1

func (d *sampleDecoder) samples() (*Samples, error) {
	magic, err := d.bytes(len(sampleMagic))
	if err != nil {
		return nil, fmt.Errorf("profiler: reading magic: %w", err)
	}
	if [5]byte(magic) != sampleMagic {
		return nil, fmt.Errorf("profiler: bad magic %q", magic)
	}
	insts, err := d.uv(1 << 31)
	if err != nil {
		return nil, err
	}
	s := &Samples{Details: map[isa.Addr][]DetailedSample{}, Insts: int(insts)}
	d.bits = make([]SigBits, 0, len(d.b)-d.off)

	nSigs, err := d.uv(1 << 24)
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(nSigs); i++ {
		var sig SignatureSample
		pc, err := d.u64()
		if err != nil {
			return nil, err
		}
		sig.StartPC = isa.Addr(pc)
		if sig.Bits, err = d.sigBits(1 << 20); err != nil {
			return nil, err
		}
		s.Sigs = append(s.Sigs, sig)
	}

	nDetails, err := d.uv(1 << 28)
	if err != nil {
		return nil, err
	}
	// Decode every detailed sample into one array, sized by the count
	// only as far as the remaining bytes could hold, then hand each
	// PC's run of it to the map (a canonical encoding sorts by PC).
	all := make([]DetailedSample, 0, min(int(nDetails), (len(d.b)-d.off)/minDetailBytes))
	for i := 0; i < int(nDetails); i++ {
		var dt DetailedSample
		pc, err := d.u64()
		if err != nil {
			return nil, err
		}
		dt.PC = isa.Addr(pc)
		op, err := d.byte()
		if err != nil {
			return nil, err
		}
		if isa.Op(op) >= isa.NumOps {
			return nil, fmt.Errorf("profiler: invalid opcode %d", op)
		}
		dt.Info.Op = isa.Op(op)
		// Bound is MaxInt32, not 1<<31: a stored value of exactly 1<<31
		// would wrap int32(sidx)-1 around to MaxInt32 and the sample
		// could never re-encode canonically.
		sidx, err := d.uv(1<<31 - 1)
		if err != nil {
			return nil, err
		}
		dt.Info.SIdx = int32(sidx) - 1
		flags, err := d.byte()
		if err != nil {
			return nil, err
		}
		dt.Info.Mispredict = flags&1 != 0
		dt.Info.DTLBMiss = flags&2 != 0
		dt.Info.ITLBMiss = flags&4 != 0
		dt.Taken = flags&8 != 0
		lv, err := d.bytes(2)
		if err != nil {
			return nil, err
		}
		if lv[0] > byte(cache.LevelMem) || lv[1] > byte(cache.LevelMem) {
			return nil, fmt.Errorf("profiler: invalid cache level")
		}
		dt.Info.DataLevel = cache.Level(lv[0])
		dt.Info.ILevel = cache.Level(lv[1])
		re, err := d.uv(1 << 30)
		if err != nil {
			return nil, err
		}
		dt.RELat = int32(re)
		tgt, err := d.u64()
		if err != nil {
			return nil, err
		}
		dt.Target = isa.Addr(tgt)
		pp, err := d.uv(1 << 30)
		if err != nil {
			return nil, err
		}
		dt.PPDelta = int32(pp)
		if dt.Before, err = d.sigBits(1 << 16); err != nil {
			return nil, err
		}
		if dt.After, err = d.sigBits(1 << 16); err != nil {
			return nil, err
		}
		all = append(all, dt)
	}
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j].PC == all[i].PC {
			j++
		}
		if prev, ok := s.Details[all[i].PC]; ok {
			s.Details[all[i].PC] = append(prev, all[i:j]...)
		} else {
			s.Details[all[i].PC] = all[i:j:j]
		}
		i = j
	}
	if len(s.Sigs) == 0 {
		return nil, fmt.Errorf("profiler: sample file has no signature samples")
	}
	return s, nil
}

// truncated is the error for a field cut short: io.EOF when no byte of
// it arrived, io.ErrUnexpectedEOF when some did.
func (d *sampleDecoder) truncated() error {
	if d.off == len(d.b) {
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

func (d *sampleDecoder) uv(max uint64) (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n == 0 {
		return 0, fmt.Errorf("profiler: reading varint: %w", d.truncated())
	}
	if n < 0 {
		return 0, fmt.Errorf("profiler: reading varint: varint overflows a 64-bit integer")
	}
	if d.exact && n > 1 && d.b[d.off+n-1] == 0 {
		return 0, fmt.Errorf("profiler: varint of %d bytes is not minimal", n)
	}
	d.off += n
	if v > max {
		return 0, fmt.Errorf("profiler: field %d exceeds bound %d", v, max)
	}
	return v, nil
}

func (d *sampleDecoder) byte() (byte, error) {
	if d.off == len(d.b) {
		return 0, io.EOF
	}
	d.off++
	return d.b[d.off-1], nil
}

// bytes returns the next n bytes, aliasing the input.
func (d *sampleDecoder) bytes(n int) ([]byte, error) {
	if len(d.b)-d.off < n {
		err := d.truncated()
		d.off = len(d.b)
		return nil, err
	}
	d.off += n
	return d.b[d.off-n : d.off], nil
}

func (d *sampleDecoder) u64() (uint64, error) {
	b, err := d.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// sigBits reads a uvarint count, at most max, and that many signature
// bytes. The count is checked against the bytes present before any
// allocation, so a claimed length costs nothing unless it arrived.
func (d *sampleDecoder) sigBits(max uint64) ([]SigBits, error) {
	n, err := d.uv(max)
	if err != nil {
		return nil, err
	}
	b, err := d.bytes(int(n))
	if err != nil {
		return nil, err
	}
	at := len(d.bits)
	for _, v := range b {
		d.bits = append(d.bits, SigBits(v))
	}
	return d.bits[at:len(d.bits):len(d.bits)], nil
}

func putUv(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func putU64(w *bufio.Writer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.Write(buf[:])
}
