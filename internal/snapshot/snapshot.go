// Package snapshot implements the versioned binary container format that
// persists built oracles to disk, separating the expensive build phase
// (ear contraction, per-BCC Dijkstra sweeps, the articulation table) from
// serving: a CI or offline job writes the snapshot once, and every daemon
// restart loads it back with zero recomputation.
//
// The container is deliberately dumb — it knows nothing about oracles. A
// file is
//
//	magic "EARSNAPS" | uint32 format version | uint32 section count |
//	section table | section payloads
//
// where each table entry is a fixed 32-byte record (8-byte NUL-padded
// name, uint64 offset, uint64 length, uint64 CRC-64/ECMA checksum) and
// every integer is little-endian. Each section's checksum is verified on
// open, so corruption anywhere in a payload surfaces as ErrChecksum
// before a single byte is decoded; truncation, bad offsets, and malformed
// structure surface as ErrCorrupt; foreign files as ErrBadMagic; files
// from an incompatible release as ErrVersionSkew. Loading never panics on
// arbitrary bytes.
//
// Sections are built with an Encoder (append-only primitive writer) and
// consumed with a Decoder (bounds-checked primitive reader with a sticky
// error), which keeps the per-type encode hooks in internal/graph,
// internal/ear, and internal/apsp short and symmetric.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"io/fs"
	"math"
	"slices"
)

const (
	// Magic identifies an oracle snapshot file. It never changes.
	Magic = "EARSNAPS"
	// Version is the container format version. It bumps only when the
	// container layout itself (header, table, primitive encoding)
	// changes; payload evolution is versioned by the writing package
	// inside its own sections.
	Version = 1

	headerLen  = len(Magic) + 4 + 4 // magic + version + section count
	entryLen   = 32                 // name[8] + offset + length + checksum
	nameLen    = 8
	maxSection = 1 << 10 // sanity bound on the section count
)

// Typed failures of the snapshot surface. Callers match them with
// errors.Is; every error returned by this package wraps exactly one.
var (
	// ErrBadMagic reports that the input is not a snapshot at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersionSkew reports a container (or payload) format version this
	// build does not understand.
	ErrVersionSkew = errors.New("snapshot: unsupported format version")
	// ErrChecksum reports that a section's payload does not match its
	// recorded checksum — the file was corrupted after it was written.
	ErrChecksum = errors.New("snapshot: section checksum mismatch")
	// ErrCorrupt reports structural damage: truncation, out-of-bounds
	// section table entries, missing sections, or payloads that decode to
	// impossible values.
	ErrCorrupt = errors.New("snapshot: corrupt or truncated")
)

// Corruptf builds an error wrapping ErrCorrupt, for decode hooks that
// find structurally impossible payloads.
func Corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// Writer accumulates named sections and serialises them with a checksummed
// table. Sections are written in the order they were created.
type Writer struct {
	names []string
	secs  []*Encoder
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Section starts a new section and returns its encoder. Names must be
// 1..8 bytes and unique; violations are programmer errors and panic.
func (w *Writer) Section(name string) *Encoder {
	if len(name) == 0 || len(name) > nameLen {
		panic(fmt.Sprintf("snapshot: section name %q must be 1..%d bytes", name, nameLen))
	}
	for _, n := range w.names {
		if n == name {
			panic(fmt.Sprintf("snapshot: duplicate section %q", name))
		}
	}
	e := &Encoder{}
	w.names = append(w.names, name)
	w.secs = append(w.secs, e)
	return e
}

// WriteTo serialises the container: header, section table, payloads.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	head := make([]byte, 0, headerLen+entryLen*len(w.secs))
	head = append(head, Magic...)
	head = binary.LittleEndian.AppendUint32(head, Version)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(w.secs)))
	off := uint64(headerLen + entryLen*len(w.secs))
	for i, e := range w.secs {
		var name [nameLen]byte
		copy(name[:], w.names[i])
		head = append(head, name[:]...)
		head = binary.LittleEndian.AppendUint64(head, off)
		head = binary.LittleEndian.AppendUint64(head, uint64(len(e.b)))
		head = binary.LittleEndian.AppendUint64(head, crc64.Checksum(e.b, crcTable))
		off += uint64(len(e.b))
	}
	// A growable destination (bytes.Buffer) is sized once for the whole
	// container instead of regrowing under each section's Write.
	if g, ok := out.(interface{ Grow(int) }); ok {
		g.Grow(int(off))
	}
	var total int64
	n, err := out.Write(head)
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, e := range w.secs {
		n, err := out.Write(e.b)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Overhead returns the bytes a container of n sections adds around their
// payloads (header plus section table), so a caller that knows what
// payload it expects from a peer can bound the read.
func Overhead(sections int) int { return headerLen + entryLen*sections }

// Reader parses a container, verifying every section checksum up front.
type Reader struct {
	secs map[string][]byte
}

// NewReader reads the whole stream and validates the container: magic,
// version, table bounds, and the checksum of every section.
func NewReader(r io.Reader) (*Reader, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	if len(data) < len(Magic) {
		return nil, fmt.Errorf("snapshot: %d-byte input: %w", len(data), ErrBadMagic)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: magic %q: %w", data[:len(Magic)], ErrBadMagic)
	}
	if len(data) < headerLen {
		return nil, fmt.Errorf("snapshot: truncated header: %w", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[len(Magic):]); v != Version {
		return nil, fmt.Errorf("snapshot: container version %d, this build reads %d: %w", v, Version, ErrVersionSkew)
	}
	nsec := binary.LittleEndian.Uint32(data[len(Magic)+4:])
	if nsec > maxSection {
		return nil, fmt.Errorf("snapshot: %d sections: %w", nsec, ErrCorrupt)
	}
	tableEnd := headerLen + entryLen*int(nsec)
	if len(data) < tableEnd {
		return nil, fmt.Errorf("snapshot: truncated section table: %w", ErrCorrupt)
	}
	rd := &Reader{secs: make(map[string][]byte, nsec)}
	for i := 0; i < int(nsec); i++ {
		ent := data[headerLen+entryLen*i:]
		name := string(trimNUL(ent[:nameLen]))
		off := binary.LittleEndian.Uint64(ent[nameLen:])
		length := binary.LittleEndian.Uint64(ent[nameLen+8:])
		sum := binary.LittleEndian.Uint64(ent[nameLen+16:])
		if off < uint64(tableEnd) || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("snapshot: section %q spans [%d, %d+%d) outside the file: %w",
				name, off, off, length, ErrCorrupt)
		}
		payload := data[off : off+length]
		if crc64.Checksum(payload, crcTable) != sum {
			return nil, fmt.Errorf("snapshot: section %q: %w", name, ErrChecksum)
		}
		rd.secs[name] = payload
	}
	return rd, nil
}

// readAll is io.ReadAll with the buffer sized up front when the source
// says how much it holds (a file, a bytes.Reader, a bytes.Buffer). The
// size is only a capacity hint: a source that turns out shorter or longer
// is still read to its end.
func readAll(r io.Reader) ([]byte, error) {
	size := -1
	switch s := r.(type) {
	case interface{ Len() int }:
		size = s.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	}
	if size < 0 {
		return io.ReadAll(r)
	}
	// ReadFrom wants MinRead spare bytes before every Read, the one that
	// returns io.EOF included.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

func trimNUL(b []byte) []byte {
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return b
}

// Has reports whether the container holds a section with that name.
func (r *Reader) Has(name string) bool { _, ok := r.secs[name]; return ok }

// Section returns a decoder over the named payload, or ErrCorrupt if the
// section is absent.
func (r *Reader) Section(name string) (*Decoder, error) {
	b, ok := r.secs[name]
	if !ok {
		return nil, fmt.Errorf("snapshot: missing section %q: %w", name, ErrCorrupt)
	}
	return &Decoder{b: b}, nil
}

// Encoder is an append-only little-endian primitive writer backing one
// section.
type Encoder struct{ b []byte }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.b) }

// U8 appends a single byte (compact enum tags, e.g. delta kinds).
func (e *Encoder) U8(v uint8) { e.b = append(e.b, v) }

// U32 appends a uint32.
func (e *Encoder) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// U64 appends a uint64.
func (e *Encoder) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// I32 appends an int32.
func (e *Encoder) I32(v int32) { e.U32(uint32(v)) }

// I64 appends an int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 by bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// extend grows the section by n bytes in one step and returns them.
func (e *Encoder) extend(n int) []byte {
	off := len(e.b)
	e.b = slices.Grow(e.b, n)[:off+n]
	return e.b[off:]
}

// I32s appends a length-prefixed int32 slice.
func (e *Encoder) I32s(s []int32) {
	e.U64(uint64(len(s)))
	raw := e.extend(4 * len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(v))
	}
}

// F64s appends a length-prefixed float64 slice.
func (e *Encoder) F64s(s []float64) {
	e.U64(uint64(len(s)))
	raw := e.extend(8 * len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
}

// F32s appends a length-prefixed float32 slice.
func (e *Encoder) F32s(s []float32) {
	e.U64(uint64(len(s)))
	raw := e.extend(4 * len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
}

// Str appends a length-prefixed byte string (job metadata: identifiers,
// kind tags, terminal error messages).
func (e *Encoder) Str(s string) {
	e.U64(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Bools appends a length-prefixed bit-packed bool slice.
func (e *Encoder) Bools(s []bool) {
	e.U64(uint64(len(s)))
	var cur byte
	for i, v := range s {
		if v {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			e.b = append(e.b, cur)
			cur = 0
		}
	}
	if len(s)%8 != 0 {
		e.b = append(e.b, cur)
	}
}

// Decoder is the bounds-checked mirror of Encoder. The first failed read
// sets a sticky ErrCorrupt; subsequent reads return zero values, so decode
// hooks can read a whole structure and check Err once at the end.
type Decoder struct {
	b   []byte
	err error
}

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) }

// Finish reports the sticky error, or ErrCorrupt if unread bytes remain —
// a decoded structure must account for its whole section.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("snapshot: %d trailing bytes after decode: %w", len(d.b), ErrCorrupt)
	}
	return nil
}

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: truncated %s: %w", what, ErrCorrupt)
	}
}

func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.fail(what)
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// U8 reads a single byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1, "uint8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4, "uint32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8, "uint64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads an int32.
func (d *Decoder) I32() int32 { return int32(d.U32()) }

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Count reads a u64 element count and validates it against the bytes
// actually remaining (each element occupying at least elemBytes), so a
// corrupt count can never drive a huge allocation.
func (d *Decoder) Count(elemBytes int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if elemBytes < 1 {
		elemBytes = 1
	}
	if n > uint64(len(d.b)/elemBytes) {
		d.fail(fmt.Sprintf("count %d (elem %dB, %dB left)", n, elemBytes, len(d.b)))
		return 0
	}
	return int(n)
}

// I32s reads a length-prefixed int32 slice.
func (d *Decoder) I32s() []int32 {
	n := d.Count(4)
	if d.err != nil {
		return nil
	}
	raw := d.take(4*n, "int32 slice")
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// F64s reads a length-prefixed float64 slice.
func (d *Decoder) F64s() []float64 {
	n := d.Count(8)
	if d.err != nil {
		return nil
	}
	raw := d.take(8*n, "float64 slice")
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// F32s reads a length-prefixed float32 slice.
func (d *Decoder) F32s() []float32 {
	n := d.Count(4)
	if d.err != nil {
		return nil
	}
	raw := d.take(4*n, "float32 slice")
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// Str reads a length-prefixed byte string.
func (d *Decoder) Str() string {
	n := d.Count(1)
	if d.err != nil {
		return ""
	}
	b := d.take(n, "string")
	return string(b)
}

// Bools reads a length-prefixed bit-packed bool slice.
func (d *Decoder) Bools() []bool {
	n64 := d.U64()
	if d.err != nil {
		return nil
	}
	// Checked against the bytes left before the rounding below, which
	// wraps to 0 for a count within 7 of 2⁶⁴.
	if n64 > 8*uint64(len(d.b)) {
		d.fail(fmt.Sprintf("bool slice of %d", n64))
		return nil
	}
	raw := d.take(int((n64+7)/8), "bool slice")
	out := make([]bool, n64)
	for i := range out {
		out[i] = raw[i/8]&(1<<(i%8)) != 0
	}
	return out
}
