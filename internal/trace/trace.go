// Package trace records and replays access-reference streams in a
// compact, versioned, delta-encoded binary format, making captured
// instruction streams first-class benchmarks: a Recorder taps the
// workload sources of a live run and captures the exact Op stream each
// core consumed; a Trace replays those streams as drop-in
// workload.Source implementations that are bit-identical across replays.
//
// # Format
//
// A trace is one self-contained byte blob:
//
//	"DEACTRC1"                     8-byte magic
//	uvarint   version (currently 1)
//	uvarint   len(benchmark) + benchmark name bytes
//	uvarint   stream count (one stream per core, global core order)
//	per stream:
//	    uvarint op count (> 0)
//	    uvarint payload length in bytes + payload
//
// Each op in a payload is a flags byte followed by varints:
//
//	bit 0   Write
//	bit 1   Blocking
//	bit 2   PC delta follows (zigzag varint); otherwise PC repeats
//	bits 3-7  Compute gap 0..30 inline; 31 escapes to a uvarint
//	[uvarint compute]     only when the inline field is 31
//	[zigzag varint ΔPC]   only when bit 2 is set
//	zigzag varint Δaddr   vs. the previous op's address (first op: vs. 0)
//
// Every varint is in its shortest form, the compute escape carries only
// values ≥ 31, and bit 2 is set only for a nonzero ΔPC: the encoding of an
// op stream is unique, so ID identifies content. Decode rejects any other
// form.
//
// Delta encoding makes strided and looping streams a couple of bytes per
// op. Tenant IDs are deliberately not recorded: like SetTenant on the
// generators, tenancy is run configuration, re-stamped at replay time, so
// one trace serves any tenant layout.
//
// Decoding is allocation-free in steady state: Replay.Next walks the
// in-memory payload with binary.Uvarint/Varint only. Load validates every
// stream completely (exact op counts, clean payload boundaries) before
// returning, so Next can trust the bytes.
package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"deact/internal/addr"
	"deact/internal/workload"
)

const (
	magic   = "DEACTRC1"
	version = 1

	flagWrite    = 1 << 0
	flagBlocking = 1 << 1
	flagPC       = 1 << 2
	computeShift = 3
	// computeEscape in the inline compute field means "uvarint follows".
	computeEscape = 31

	// minStreamBytes is the smallest encoded stream: a one-byte op count,
	// a one-byte payload length, and one op of a flags byte and a one-byte
	// address delta.
	minStreamBytes = 4
)

// Recorder captures the per-core Op streams of one run. Build it with the
// run's core count, wrap each core's source with Tap, run, then Encode or
// Save the trace. A Recorder serves exactly one run at a time: taps are
// not safe for use from concurrent runs.
type Recorder struct {
	bench   string
	streams []streamEnc
}

type streamEnc struct {
	buf    []byte
	n      uint64
	prev   uint64
	prevPC uint64
}

// NewRecorder prepares a recorder for a run of the named benchmark with
// the given number of cores (= streams, in global core order).
func NewRecorder(bench string, streams int) *Recorder {
	return &Recorder{bench: bench, streams: make([]streamEnc, streams)}
}

// Streams returns the number of per-core streams the recorder captures.
func (r *Recorder) Streams() int { return len(r.streams) }

// Ops returns the number of ops recorded so far on stream i.
func (r *Recorder) Ops(i int) uint64 { return r.streams[i].n }

// Tap wraps src so every op it produces is appended to stream i. The tap
// delegates Next/SetTenant to src unchanged — a recording run is
// draw-identical to an unrecorded one.
func (r *Recorder) Tap(i int, src workload.Source) workload.Source {
	return &tap{src: src, enc: &r.streams[i]}
}

type tap struct {
	src workload.Source
	enc *streamEnc
}

func (t *tap) Next() workload.Op {
	op := t.src.Next()
	t.enc.append(op)
	return op
}

func (t *tap) SetTenant(tn uint8) { t.src.SetTenant(tn) }
func (e *streamEnc) append(op workload.Op) {
	flags := byte(0)
	if op.Write {
		flags |= flagWrite
	}
	if op.Blocking {
		flags |= flagBlocking
	}
	if op.PC != e.prevPC {
		flags |= flagPC
	}
	c := op.Compute
	if c < computeEscape {
		flags |= byte(c) << computeShift
	} else {
		flags |= computeEscape << computeShift
	}
	e.buf = append(e.buf, flags)
	if c >= computeEscape {
		e.buf = binary.AppendUvarint(e.buf, uint64(c))
	}
	if op.PC != e.prevPC {
		e.buf = binary.AppendVarint(e.buf, int64(op.PC-e.prevPC))
		e.prevPC = op.PC
	}
	e.buf = binary.AppendVarint(e.buf, int64(uint64(op.Addr)-e.prev))
	e.prev = uint64(op.Addr)
	e.n++
}

// Encode serializes the recorded streams into the trace format.
func (r *Recorder) Encode() []byte {
	var out []byte
	out = append(out, magic...)
	out = binary.AppendUvarint(out, version)
	out = binary.AppendUvarint(out, uint64(len(r.bench)))
	out = append(out, r.bench...)
	out = binary.AppendUvarint(out, uint64(len(r.streams)))
	for i := range r.streams {
		s := &r.streams[i]
		out = binary.AppendUvarint(out, s.n)
		out = binary.AppendUvarint(out, uint64(len(s.buf)))
		out = append(out, s.buf...)
	}
	return out
}

// WriteTo writes the encoded trace to w.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(r.Encode())
	return int64(n), err
}

// Save writes the encoded trace to path.
func (r *Recorder) Save(path string) error {
	if err := os.WriteFile(path, r.Encode(), 0o644); err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	return nil
}

// Trace is a decoded, validated, immutable trace. One Trace may back any
// number of concurrent replays: Source returns a fresh cursor over the
// shared payload bytes each call.
type Trace struct {
	bench   string
	id      string
	streams []stream
}

type stream struct {
	data []byte
	ops  uint64
}

// Load reads and decodes the trace at path.
func Load(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	t, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("trace: load %s: %w", path, err)
	}
	return t, nil
}

// Decode parses and fully validates an encoded trace. Every stream is
// walked op by op so that replay can proceed without bounds anxiety.
func Decode(data []byte) (*Trace, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: bad magic (not a deact trace)")
	}
	rest := data[len(magic):]
	v, n := uvarint(rest)
	if n <= 0 || v != version {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d)", v, version)
	}
	rest = rest[n:]
	bl, n := uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < bl {
		return nil, fmt.Errorf("trace: truncated benchmark name")
	}
	bench := string(rest[n : n+int(bl)])
	rest = rest[n+int(bl):]
	sc, n := uvarint(rest)
	// Bounding sc by the bytes left keeps a short header from claiming
	// (and allocating) streams it cannot hold.
	if n <= 0 || sc == 0 || sc > 1<<20 || sc > uint64(len(rest)-n)/minStreamBytes {
		return nil, fmt.Errorf("trace: invalid stream count %d", sc)
	}
	rest = rest[n:]
	t := &Trace{bench: bench, streams: make([]stream, sc)}
	for i := range t.streams {
		ops, n := uvarint(rest)
		if n <= 0 || ops == 0 {
			return nil, fmt.Errorf("trace: stream %d: invalid op count", i)
		}
		rest = rest[n:]
		bl, n := uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < bl {
			return nil, fmt.Errorf("trace: stream %d: truncated payload", i)
		}
		payload := rest[n : n+int(bl)]
		rest = rest[n+int(bl):]
		if err := validateStream(payload, ops); err != nil {
			return nil, fmt.Errorf("trace: stream %d: %w", i, err)
		}
		t.streams[i] = stream{data: payload, ops: ops}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after last stream", len(rest))
	}
	sum := sha256.Sum256(data)
	t.id = hex.EncodeToString(sum[:])[:32]
	return t, nil
}

// validateStream decodes the whole payload once, requiring exactly ops
// ops in the Recorder's encoding and a clean end.
func validateStream(data []byte, ops uint64) error {
	pos := 0
	for i := uint64(0); i < ops; i++ {
		if pos >= len(data) {
			return fmt.Errorf("payload ends at op %d of %d", i, ops)
		}
		flags := data[pos]
		pos++
		if flags>>computeShift == computeEscape {
			v, n := uvarint(data[pos:])
			if n <= 0 || v < computeEscape || v > 1<<30 {
				return fmt.Errorf("op %d: bad compute varint", i)
			}
			pos += n
		}
		if flags&flagPC != 0 {
			if d, n := varint(data[pos:]); n <= 0 || d == 0 {
				return fmt.Errorf("op %d: bad pc varint", i)
			} else {
				pos += n
			}
		}
		if _, n := varint(data[pos:]); n <= 0 {
			return fmt.Errorf("op %d: bad address varint", i)
		} else {
			pos += n
		}
	}
	if pos != len(data) {
		return fmt.Errorf("%d trailing payload bytes", len(data)-pos)
	}
	return nil
}

// uvarint is binary.Uvarint restricted to shortest encodings, the only
// ones AppendUvarint writes: it reports n = 0 for an overlong one, whose
// last byte is a redundant zero group.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// varint is binary.Varint restricted to shortest encodings, like uvarint.
func varint(b []byte) (int64, int) {
	v, n := binary.Varint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// ID is the trace's content identity: the first 32 hex characters of the
// SHA-256 of the encoded bytes. core.Config.TraceID carries it so replay
// runs fingerprint (and therefore cache and dedup) distinctly per trace.
func (t *Trace) ID() string { return t.id }

// Benchmark is the benchmark name recorded in the trace metadata.
func (t *Trace) Benchmark() string { return t.bench }

// Streams returns the number of per-core streams.
func (t *Trace) Streams() int { return len(t.streams) }

// Ops returns the op count of stream i.
func (t *Trace) Ops(i int) uint64 { return t.streams[i].ops }

// Source returns a fresh replay cursor over stream i.
func (t *Trace) Source(i int) *Replay {
	return &Replay{data: t.streams[i].data}
}

// Replay feeds a recorded stream back as a workload.Source. A replay that
// consumes more ops than were recorded wraps to the beginning of its
// stream (with delta context reset), so budgets longer than the recording
// remain well-defined and deterministic. Next allocates nothing.
type Replay struct {
	data   []byte
	pos    int
	prev   uint64 // last address emitted (delta context)
	prevPC uint64
	tenant uint8
}

var _ workload.Source = (*Replay)(nil)

// Next decodes and returns the next recorded op.
func (r *Replay) Next() workload.Op {
	if r.pos >= len(r.data) {
		r.pos, r.prev, r.prevPC = 0, 0, 0 // wrap: restart the stream
	}
	flags := r.data[r.pos]
	r.pos++
	compute := int(flags >> computeShift)
	if compute == computeEscape {
		v, n := binary.Uvarint(r.data[r.pos:])
		compute = int(v)
		r.pos += n
	}
	if flags&flagPC != 0 {
		d, n := binary.Varint(r.data[r.pos:])
		r.prevPC += uint64(d)
		r.pos += n
	}
	d, n := binary.Varint(r.data[r.pos:])
	r.prev += uint64(d)
	r.pos += n
	return workload.Op{
		Compute:  compute,
		Addr:     addr.VAddr(r.prev),
		Write:    flags&flagWrite != 0,
		Blocking: flags&flagBlocking != 0,
		Tenant:   r.tenant,
		PC:       r.prevPC,
	}
}

// SetTenant stamps t onto every replayed op; tenancy is run
// configuration, not trace content.
func (r *Replay) SetTenant(t uint8) { r.tenant = t }

// Equal reports whether two traces have identical content.
func (t *Trace) Equal(o *Trace) bool {
	if t.bench != o.bench || len(t.streams) != len(o.streams) {
		return false
	}
	for i := range t.streams {
		if t.streams[i].ops != o.streams[i].ops || !bytes.Equal(t.streams[i].data, o.streams[i].data) {
			return false
		}
	}
	return true
}
