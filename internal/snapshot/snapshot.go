// Package snapshot implements the versioned binary container format
// behind every binary file the system writes: oracle and shard snapshots,
// .earg graphs, shard plans and job checkpoints. For oracles it separates
// the expensive build phase (ear contraction, per-BCC Dijkstra sweeps, the
// articulation table) from serving: a CI or offline job writes the
// snapshot once, and every daemon restart loads it back with zero
// recomputation.
//
// The container is deliberately dumb — it knows nothing about oracles. A
// file is
//
//	magic "EARSNAPS" | uint32 format version | uint32 section count |
//	section table | section payloads
//
// where each table entry is a fixed 32-byte record (8-byte NUL-padded
// name, uint64 offset, uint64 length, uint64 Checksum) and every integer
// is little-endian. A Reader streams the sections and verifies each
// one's checksum as it is read, so corruption anywhere in a payload
// surfaces as ErrChecksum, even where the flipped byte also decodes to
// nonsense; truncation, bad offsets, and malformed structure surface as
// ErrCorrupt; foreign files as ErrBadMagic; files from an incompatible
// release as ErrVersionSkew. Loading never panics on arbitrary bytes.
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
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"slices"
	"unsafe"
)

const (
	// Magic identifies a snapshot container. It never changes.
	Magic = "EARSNAPS"
	// Version is the container format version. It bumps only when the
	// container layout itself (header, table, primitive encoding)
	// changes; payload evolution is versioned by the writing package
	// inside its own sections.
	Version = 2

	headerLen  = len(Magic) + 4 + 4 // magic + version + section count
	entryLen   = 32                 // name[8] + offset + length + checksum
	nameLen    = 8
	maxSection = 1 << 10  // sanity bound on the section count
	bufSize    = 64 << 10 // read-ahead of a section's scalars and short slices
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
	// ErrWrongKind reports a well-formed file of another kind than the
	// reader loads: a shard snapshot given where an oracle snapshot is
	// expected, say.
	ErrWrongKind = errors.New("snapshot: wrong kind of file")
)

// Corruptf builds an error wrapping ErrCorrupt, for decode hooks that
// find structurally impossible payloads.
func Corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

// Checksum is the container's 64-bit section check: CRC-32C (Castagnoli)
// in the high word and CRC-32 (IEEE) in the low, both of which hash/crc32
// runs in hardware where the CPU has it. A corruption passes only if it
// fools both polynomials. The zero value sums no bytes; Write extends it.
type Checksum struct{ c, ieee uint32 }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Write adds p to the sum. It never fails.
func (h *Checksum) Write(p []byte) (int, error) {
	h.c, h.ieee = crc32.Update(h.c, castagnoli, p), crc32.Update(h.ieee, crc32.IEEETable, p)
	return len(p), nil
}

// Sum64 returns the checksum of the bytes written so far.
func (h *Checksum) Sum64() uint64 { return uint64(h.c)<<32 | uint64(h.ieee) }

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
// Each section's runs, borrowed tables included, are checksummed and then
// written to out as they stand, with no staging copy.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	head := make([]byte, 0, headerLen+entryLen*len(w.secs))
	head = append(head, Magic...)
	head = binary.LittleEndian.AppendUint32(head, Version)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(w.secs)))
	runs := [][]byte{nil} // the header, once the table is complete
	off := uint64(headerLen + entryLen*len(w.secs))
	for i, e := range w.secs {
		var sum Checksum
		start := off
		for _, run := range e.flush() {
			sum.Write(run)
			off += uint64(len(run))
		}
		runs = append(runs, e.runs...)
		head = append(append(head, w.names[i]...), make([]byte, nameLen-len(w.names[i]))...)
		head = binary.LittleEndian.AppendUint64(head, start)
		head = binary.LittleEndian.AppendUint64(head, off-start)
		head = binary.LittleEndian.AppendUint64(head, sum.Sum64())
	}
	runs[0] = head
	// A growable destination (bytes.Buffer) is sized once for the whole
	// container instead of regrowing under each run's Write.
	if g, ok := out.(interface{ Grow(int) }); ok {
		g.Grow(int(off))
	}
	var total int64
	for _, run := range runs {
		n, err := out.Write(run)
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

// Reader streams a container's sections from its source in file order.
type Reader struct {
	src  io.Reader
	ents []entry  // the section table, in file order
	next int      // ents[next:] are unread
	cur  *Decoder // the section being read, if any
}

type entry struct {
	name             string
	off, length, sum uint64
}

// NewReader reads the container's header and section table and holds
// every entry against the size the source reports (Len, a regular file's
// Stat, an *io.LimitedReader's N): the table must list the sections in
// file order, within the source. A source that reports no size is read
// whole first. Payload checksums are verified as each section is read.
func NewReader(r io.Reader) (*Reader, error) {
	size := int64(-1)
	switch s := r.(type) {
	case interface{ Len() int }:
		size = int64(s.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			size = fi.Size()
		}
	case *io.LimitedReader:
		size = s.N
	}
	if size < 0 {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, readErr("input", err)
		}
		r, size = bytes.NewReader(data), int64(len(data))
	}
	var head [headerLen]byte
	if n, err := io.ReadFull(r, head[:]); n < len(Magic) || string(head[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: magic %q: %w", head[:min(n, len(Magic))], ErrBadMagic)
	} else if err != nil {
		return nil, readErr("header", err)
	}
	if v := binary.LittleEndian.Uint32(head[len(Magic):]); v != Version {
		return nil, fmt.Errorf("snapshot: container version %d, this build reads %d: %w", v, Version, ErrVersionSkew)
	}
	nsec := binary.LittleEndian.Uint32(head[len(Magic)+4:])
	if nsec > maxSection {
		return nil, fmt.Errorf("snapshot: %d sections: %w", nsec, ErrCorrupt)
	}
	table := make([]byte, entryLen*nsec)
	if _, err := io.ReadFull(r, table); err != nil {
		return nil, readErr("section table", err)
	}
	rd, end := &Reader{src: r, ents: make([]entry, nsec)}, uint64(headerLen+len(table))
	for i := range rd.ents {
		ent := table[entryLen*i:]
		e := entry{string(bytes.TrimRight(ent[:nameLen], "\x00")), binary.LittleEndian.Uint64(ent[nameLen:]),
			binary.LittleEndian.Uint64(ent[nameLen+8:]), binary.LittleEndian.Uint64(ent[nameLen+16:])}
		if e.off != end || end > uint64(size) || e.length > uint64(size)-end {
			return nil, fmt.Errorf("snapshot: section %q at [%d, %d+%d) is not the next %d-byte source's bytes: %w",
				e.name, e.off, e.off, e.length, size, ErrCorrupt)
		}
		rd.ents[i], end = e, e.off+e.length
	}
	return rd, nil
}

// readErr types a failed read: the container is cut short or unreadable.
func readErr(what string, err error) error {
	return fmt.Errorf("snapshot: reading %s: %w: %w", what, err, ErrCorrupt)
}

// Has reports whether the container holds a section with that name.
func (r *Reader) Has(name string) bool {
	return slices.ContainsFunc(r.ents, func(e entry) bool { return e.name == name })
}

// Section returns a decoder over the named section, which must lie past
// every section already opened: a missing one, or one behind, is a
// decoder whose sticky error is ErrCorrupt. The section being read and
// every section passed over are read through their checksums first; a
// failure there is the sticky error.
func (r *Reader) Section(name string) *Decoder {
	i := slices.IndexFunc(r.ents, func(e entry) bool { return e.name == name })
	if i < r.next {
		return &Decoder{err: fmt.Errorf("snapshot: section %q missing or behind the read position: %w", name, ErrCorrupt)}
	}
	for ; r.next <= i; r.next++ {
		if err := r.Close(nil); err != nil {
			return &Decoder{err: err}
		}
		r.cur = &Decoder{src: r.src, left: int(r.ents[r.next].length), ent: &r.ents[r.next]}
	}
	return r.cur
}

// Close reads the open section through its checksum and returns err,
// unless the checksum fails: then a hook that found an impossible value
// mid-section reports the flipped byte that explains it.
func (r *Reader) Close(err error) error {
	if d := r.cur; d != nil {
		r.cur = nil
		if cerr := d.drain(); cerr != nil && (err == nil || errors.Is(cerr, ErrChecksum)) {
			return cerr
		}
	}
	return err
}

// Encoder is an append-only little-endian primitive writer backing one
// section. The section is a sequence of runs: the bytes the encoder wrote
// and the tables AppendTable borrows instead of copying.
type Encoder struct {
	runs [][]byte // finished runs
	b    []byte   // the open run
}

// flush finishes the open run and returns the section's runs in order.
func (e *Encoder) flush() [][]byte {
	if len(e.b) > 0 {
		e.runs, e.b = append(e.runs, e.b), e.b[len(e.b):]
	}
	return e.runs
}

// extend grows the section by n bytes and returns them. A full run is
// finished, not regrown, and the next is twice its size: no byte is
// copied twice.
func (e *Encoder) extend(n int) []byte {
	if cap(e.b)-len(e.b) < n {
		size := max(n, 2*cap(e.b), 64)
		e.flush()
		e.b = make([]byte, 0, size)
	}
	off := len(e.b)
	e.b = e.b[:off+n]
	return e.b[off:]
}

// U32 appends a uint32.
func (e *Encoder) U32(v uint32) { binary.LittleEndian.PutUint32(e.extend(4), v) }

// U64 appends a uint64.
func (e *Encoder) U64(v uint64) { binary.LittleEndian.PutUint64(e.extend(8), v) }

// I32 appends an int32.
func (e *Encoder) I32(v int32) { e.U32(uint32(v)) }

// I64 appends an int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 by bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// I32s appends a length-prefixed int32 slice.
func (e *Encoder) I32s(s []int32) {
	e.U64(uint64(len(s)))
	raw := e.extend(4 * len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(v))
	}
}

// borrowMin is the shortest table AppendTable borrows; shorter ones copy
// cheaper.
const borrowMin = 512

// littleEndian reports whether a table's bytes in memory are its
// encoding, which is what lets AppendTable borrow it.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Entry is an element type of a distance table.
type Entry interface {
	uint8 | uint16 | float32 | float64
}

// bytesOf is s's memory as bytes: on a little-endian host, its encoding.
// The encoders write tables from it and the decoders read tables into it.
func bytesOf[T Entry](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), int(unsafe.Sizeof(T(0)))*len(s))
}

// swapOrder turns b, size-byte entries, from the host's byte order into
// the little-endian encoding or back: a byte swap per element on a
// big-endian host, nothing on a little-endian one.
func swapOrder(b []byte, size int) {
	le, ne := binary.LittleEndian, binary.NativeEndian
	for i := 0; i < len(b); i += size {
		switch size {
		case 8:
			le.PutUint64(b[i:], ne.Uint64(b[i:]))
		case 4:
			le.PutUint32(b[i:], ne.Uint32(b[i:]))
		case 2:
			le.PutUint16(b[i:], ne.Uint16(b[i:]))
		}
	}
}

// F64s appends a length-prefixed float64 slice, as AppendTable does.
func (e *Encoder) F64s(s []float64) { AppendTable(e, s) }

// AppendTable appends a length-prefixed slice of table entries. On a
// little-endian host a slice of borrowMin values or more is borrowed, not
// copied: WriteTo reads it in place, so s must not change until then
// (oracle tables never do).
func AppendTable[T Entry](e *Encoder, s []T) {
	e.U64(uint64(len(s)))
	raw := bytesOf(s)
	if littleEndian && len(s) >= borrowMin {
		e.runs = append(e.flush(), raw)
		return
	}
	dst := e.extend(len(raw))
	if copy(dst, raw); !littleEndian {
		swapOrder(dst, int(unsafe.Sizeof(T(0))))
	}
}

// Str appends a length-prefixed byte string (job metadata: identifiers,
// kind tags, terminal error messages).
func (e *Encoder) Str(s string) {
	e.U64(uint64(len(s)))
	copy(e.extend(len(s)), s)
}

// Decoder is the bounds-checked mirror of Encoder. The first failed read
// sets a sticky ErrCorrupt; subsequent reads return zero values, so decode
// hooks can read a whole structure and check Err once at the end. A
// section's decoder reads it from the source as it goes, through its
// checksum. A decode that fails reads the rest of the section first, and
// a checksum that does not match replaces the error: a flipped byte is
// ErrChecksum, whatever it decoded to.
type Decoder struct {
	b    []byte    // read, not yet decoded
	src  io.Reader // the rest of the section; nil once drained
	left int       // bytes src still holds of the section
	buf  []byte    // b's storage
	sum  Checksum  // of the bytes read from src
	ent  *entry
	err  error
}

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// remaining returns the number of unread bytes.
func (d *Decoder) remaining() int { return len(d.b) + d.left }

// Finish reports the sticky error, or ErrCorrupt if unread bytes remain —
// a decoded structure must account for its whole section — or
// ErrChecksum.
func (d *Decoder) Finish() error {
	if n := d.remaining(); n != 0 {
		d.failWith(fmt.Errorf("snapshot: %d trailing bytes after decode: %w", n, ErrCorrupt))
	} else if d.err == nil {
		d.err = d.drain()
	}
	return d.err
}

func (d *Decoder) fail(what string) {
	d.failWith(fmt.Errorf("snapshot: truncated %s: %w", what, ErrCorrupt))
}

// failWith sets the sticky error, or ErrChecksum if the section fails it.
func (d *Decoder) failWith(err error) {
	if d.err == nil {
		if cerr := d.drain(); errors.Is(cerr, ErrChecksum) {
			err = cerr
		}
		d.err = err
	}
}

// drain reads the rest of the section and checks its checksum, once.
func (d *Decoder) drain() error {
	if d.b = nil; d.src == nil {
		return nil
	}
	_, err := io.CopyN(&d.sum, d.src, int64(d.left))
	if d.src, d.left = nil, 0; err != nil {
		return readErr(d.ent.name, err)
	}
	if d.sum.Sum64() != d.ent.sum {
		return fmt.Errorf("snapshot: section %q: %w", d.ent.name, ErrChecksum)
	}
	return nil
}

// pull fills p with the section's next bytes, a read-ahead's worth at a
// time: each chunk is checksummed while it is still in cache.
func (d *Decoder) pull(p []byte) {
	for len(p) > 0 && d.err == nil {
		n, err := io.ReadFull(d.src, p[:min(len(p), bufSize)])
		d.sum.Write(p[:n])
		if d.left, p = d.left-n, p[n:]; err != nil {
			d.src, d.err = nil, readErr(d.ent.name, err)
		}
	}
}

// take returns the next n bytes, valid until the next read.
func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n > d.remaining() {
		d.fail(what)
		return nil
	}
	if len(d.b) < n { // keep the unread bytes, then read ahead
		if cap(d.buf) < n {
			d.buf = make([]byte, max(n, min(bufSize, d.remaining())))
		}
		k := copy(d.buf[:cap(d.buf)], d.b)
		d.b = d.buf[:min(cap(d.buf), k+d.left)]
		if d.pull(d.b[k:]); d.err != nil {
			return nil
		}
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	if b := d.take(4, "uint32"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	if b := d.take(8, "uint64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I32 reads an int32.
func (d *Decoder) I32() int32 { return int32(d.U32()) }

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Version reads a payload's format version: any value but want is a
// sticky ErrVersionSkew, unless the section fails its checksum.
func (d *Decoder) Version(what string, want uint32) {
	if v := d.U32(); v != want && d.err == nil {
		d.failWith(fmt.Errorf("%s format v%d, this build reads v%d: %w", what, v, want, ErrVersionSkew))
	}
}

// Reserved reads a uint32 that every writer leaves 0; any other value is a
// sticky ErrCorrupt.
func (d *Decoder) Reserved(what string) {
	if v := d.U32(); v != 0 && d.err == nil {
		d.failWith(Corruptf("snapshot: %s %#x, reserved 0", what, v))
	}
}

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
	if n > uint64(d.remaining()/elemBytes) {
		d.fail(fmt.Sprintf("count %d (elem %dB, %dB left)", n, elemBytes, d.remaining()))
		return 0
	}
	return int(n)
}

// I32s reads a length-prefixed int32 slice.
func (d *Decoder) I32s() []int32 { return d.AppendI32s([]int32{}) }

// AppendI32s reads a length-prefixed int32 slice onto the end of s, or
// returns nil if the read fails: many slices decode into one array.
func (d *Decoder) AppendI32s(s []int32) []int32 {
	n := d.Count(4)
	raw := d.take(4*n, "int32 slice")
	if d.err != nil {
		return nil
	}
	s = slices.Grow(s, n)
	for i := range n {
		s = append(s, int32(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	return s
}

// F64s reads a length-prefixed float64 slice, as ReadTable does.
func (d *Decoder) F64s() []float64 { return ReadTable[float64](d) }

// ReadTable reads a length-prefixed slice of table entries into a new
// slice: a short one through the read-ahead, a long one straight from the
// source. On a little-endian host its bytes are its encoding.
func ReadTable[T Entry](d *Decoder) []T {
	size := int(unsafe.Sizeof(T(0)))
	n := d.Count(size)
	if d.err != nil {
		return nil
	}
	out := make([]T, n)
	raw := bytesOf(out)
	if len(raw) < bufSize {
		copy(raw, d.take(len(raw), "table"))
	} else {
		k := copy(raw, d.b)
		if d.b = d.b[k:]; k < len(raw) {
			d.pull(raw[k:])
		}
	}
	if d.err != nil {
		return nil
	}
	if !littleEndian {
		swapOrder(raw, size)
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
