package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"
	"unsafe"
)

// buildContainer writes a two-section container exercising every
// primitive.
func buildContainer(t *testing.T) []byte {
	t.Helper()
	w := NewWriter()
	a := w.Section("alpha")
	a.U32(7)
	a.U64(1 << 40)
	a.I32(-3)
	a.I64(-1 << 40)
	a.U64(math.Float64bits(math.Pi))
	a.I32s([]int32{1, -2, 3})
	a.F64s([]float64{0, math.Inf(1), -0.5})
	b := w.Section("beta")
	b.I32s(nil)
	var buf bytes.Buffer
	n, err := w.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := buildContainer(t)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if !r.Has("alpha") || !r.Has("beta") || r.Has("gamma") {
		t.Fatalf("section presence wrong")
	}
	d := r.Section("alpha")
	if got := d.U32(); got != 7 {
		t.Errorf("U32 = %d", got)
	}
	if got := d.U64(); got != 1<<40 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I32(); got != -3 {
		t.Errorf("I32 = %d", got)
	}
	if got := d.I64(); got != -1<<40 {
		t.Errorf("I64 = %d", got)
	}
	if got := math.Float64frombits(d.U64()); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.I32s(); len(got) != 3 || got[0] != 1 || got[1] != -2 || got[2] != 3 {
		t.Errorf("I32s = %v", got)
	}
	if got := d.F64s(); len(got) != 3 || got[0] != 0 || !math.IsInf(got[1], 1) || got[2] != -0.5 {
		t.Errorf("F64s = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
	if err := r.Section("gamma").Err(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("missing section error = %v, want ErrCorrupt", err)
	}
}

func TestBadMagic(t *testing.T) {
	for _, in := range [][]byte{nil, []byte("EAR"), []byte("NOTASNAP-------------")} {
		if _, err := NewReader(bytes.NewReader(in)); !errors.Is(err, ErrBadMagic) {
			t.Errorf("input %q: err = %v, want ErrBadMagic", in, err)
		}
	}
}

func TestVersionSkew(t *testing.T) {
	data := buildContainer(t)
	binary.LittleEndian.PutUint32(data[len(Magic):], Version+9)
	if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrVersionSkew) {
		t.Errorf("err = %v, want ErrVersionSkew", err)
	}
}

// decodeAll reads a buildContainer image the way a loader reads a file:
// each section in turn, field by field, then Finish.
func decodeAll(data []byte) error {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	a := r.Section("alpha")
	a.U32()
	a.U64()
	a.I32()
	a.I64()
	a.U64()
	a.I32s()
	a.F64s()
	if err := a.Finish(); err != nil {
		return err
	}
	b := r.Section("beta")
	b.I32s()
	return b.Finish()
}

// Every payload flip is ErrChecksum, also one that turns a count into a
// value the section cannot hold: a decode that fails mid-section reads
// the rest and lets the checksum explain it.
func TestChecksumCatchesPayloadFlips(t *testing.T) {
	data := buildContainer(t)
	if err := decodeAll(data); err != nil {
		t.Fatal(err)
	}
	headerEnd := headerLen + 2*entryLen
	for pos := headerEnd; pos < len(data); pos += 7 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		if err := decodeAll(mut); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: err = %v, want ErrChecksum", pos, err)
		}
	}
}

func TestTruncationIsTyped(t *testing.T) {
	data := buildContainer(t)
	for cut := 0; cut < len(data); cut += 5 {
		err := decodeAll(data[:cut])
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
}

// Sections stream in file order: a section passed over is still read
// through its checksum, and one behind the read position is refused.
func TestSectionsInFileOrder(t *testing.T) {
	data := buildContainer(t)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("beta").Err(); err != nil {
		t.Fatal(err)
	}
	if err := r.Section("alpha").Err(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("alpha after beta: err = %v, want ErrCorrupt", err)
	}
	mut := append([]byte(nil), data...)
	mut[headerLen+2*entryLen+3] ^= 0x01 // in alpha
	r, err = NewReader(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("beta").Err(); !errors.Is(err, ErrChecksum) {
		t.Errorf("beta past a flipped alpha: err = %v, want ErrChecksum", err)
	}
}

func TestDecoderSticky(t *testing.T) {
	d := &Decoder{b: []byte{1, 2}}
	if got := d.U64(); got != 0 {
		t.Errorf("short U64 = %d", got)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("Err = %v, want ErrCorrupt", d.Err())
	}
	// Oversized counts must not allocate.
	d2 := &Decoder{b: binary.LittleEndian.AppendUint64(nil, 1<<62)}
	if got := d2.I32s(); got != nil {
		t.Errorf("oversized I32s = %v", got)
	}
	if !errors.Is(d2.Err(), ErrCorrupt) {
		t.Errorf("oversized count Err = %v", d2.Err())
	}
	// Trailing bytes are an error at Finish.
	d3 := &Decoder{b: []byte{0, 0, 0, 0, 99}}
	d3.U32()
	if err := d3.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Finish with trailing bytes = %v", err)
	}
}

// Slices move as one block; the bytes are those of the per-element
// writers, whether AppendTable borrows the table (a little-endian host,
// borrowMin values or more) or copies it (shorter tables, and every table
// on a big-endian host), at each table entry type.
func TestSliceCodecMatchesElements(t *testing.T) {
	i32 := []int32{0, -1, 1 << 30, math.MinInt32}
	f64 := []float64{0, -0.0, 1.5, math.Inf(1), math.MaxFloat64}
	f32 := []float32{0, float32(math.Copysign(0, -1)), 1.5, float32(math.Inf(1)), math.MaxFloat32}
	u8, u16 := []uint8{0, 1, 255}, []uint16{0, 1, 256, 65535}
	long, long32 := make([]float64, borrowMin), make([]float32, borrowMin)
	long8, long16 := make([]uint8, borrowMin), make([]uint16, borrowMin)
	for i := range long {
		long[i], long32[i], long8[i], long16[i] = float64(i)/3, float32(i)/3, uint8(i), uint16(i*127)
	}
	le16 := binary.LittleEndian.PutUint16
	defer func(le bool) { littleEndian = le }(littleEndian)
	for _, le := range []bool{littleEndian, false} {
		littleEndian = le
		got, want := &Encoder{b: []byte{7}}, &Encoder{b: []byte{7}}
		got.I32s(i32)
		got.F64s(f64)
		got.F64s(long)
		AppendTable(got, f32)
		AppendTable(got, long32)
		AppendTable(got, u8)
		AppendTable(got, long8)
		AppendTable(got, u16)
		AppendTable(got, long16)
		got.I32s(nil)
		want.U64(uint64(len(i32)))
		for _, v := range i32 {
			want.I32(v)
		}
		for _, s := range [][]float64{f64, long} {
			want.U64(uint64(len(s)))
			for _, v := range s {
				want.U64(math.Float64bits(v))
			}
		}
		for _, s := range [][]float32{f32, long32} {
			want.U64(uint64(len(s)))
			for _, v := range s {
				want.U32(math.Float32bits(v))
			}
		}
		for _, s := range [][]uint8{u8, long8} {
			want.U64(uint64(len(s)))
			copy(want.extend(len(s)), s)
		}
		for _, s := range [][]uint16{u16, long16} {
			want.U64(uint64(len(s)))
			for _, v := range s {
				le16(want.extend(2), v)
			}
		}
		want.U64(0)
		flat := bytes.Join(got.flush(), nil)
		if w := bytes.Join(want.flush(), nil); !bytes.Equal(flat, w) {
			t.Fatalf("little-endian %v: slice encoders wrote\n%x\nelement encoders wrote\n%x", le, flat, w)
		}
		for _, p := range []*byte{(*byte)(unsafe.Pointer(&long[0])), (*byte)(unsafe.Pointer(&long32[0])), &long8[0], (*byte)(unsafe.Pointer(&long16[0]))} {
			borrowed := slices.ContainsFunc(got.runs, func(r []byte) bool { return unsafe.SliceData(r) == p })
			if borrowed != le {
				t.Errorf("little-endian %v: table of %d borrowed = %v", le, borrowMin, borrowed)
			}
		}
		d := &Decoder{b: flat[1:]}
		eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		eq32 := func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }
		if a, b, c, b32, c32 := d.I32s(), d.F64s(), d.F64s(), ReadTable[float32](d), ReadTable[float32](d); !slices.Equal(a, i32) ||
			!slices.EqualFunc(b, f64, eq) || !slices.EqualFunc(c, long, eq) ||
			!slices.EqualFunc(b32, f32, eq32) || !slices.EqualFunc(c32, long32, eq32) {
			t.Fatalf("decoded %v %v %d values %v %d values", a, b, len(c), b32, len(c32))
		}
		if b8, c8, b16, c16, e := ReadTable[uint8](d), ReadTable[uint8](d), ReadTable[uint16](d), ReadTable[uint16](d), d.I32s(); !slices.Equal(b8, u8) ||
			!slices.Equal(c8, long8) || !slices.Equal(b16, u16) || !slices.Equal(c16, long16) || len(e) != 0 {
			t.Fatalf("decoded %v %d values %v %d values %v", b8, len(c8), b16, len(c16), e)
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
		// A count the bytes cannot back fails before any element is read.
		short := &Decoder{b: flat[1 : 1+8+4*len(i32)-1]}
		if s := short.I32s(); s != nil || !errors.Is(short.Err(), ErrCorrupt) {
			t.Fatalf("short slice: %v, err %v", s, short.Err())
		}
	}
}

// lenReader claims a length that need not be the truth.
type lenReader struct {
	io.Reader
	n int
}

func (l lenReader) Len() int { return l.n }

// NewReader holds the section table against the size its source reports.
// A size that covers the container streams it; one that does not is
// ErrCorrupt before a payload byte is read, and so is a table entry
// longer than the file. A source that reports no size is read whole.
func TestNewReaderSizedSources(t *testing.T) {
	data := buildContainer(t)
	path := filepath.Join(t.TempDir(), "c.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	long := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(long[headerLen+entryLen+nameLen+8:], 1<<40) // beta's length
	sources := map[string]struct {
		src io.Reader
		ok  bool
	}{
		"bytes.Reader":        {bytes.NewReader(data), true},
		"bytes.Buffer":        {bytes.NewBuffer(data), true},
		"no size":             {io.MultiReader(bytes.NewReader(data)), true},
		"Len too large":       {lenReader{bytes.NewReader(data), 4 * len(data)}, true},
		"Len negative":        {lenReader{bytes.NewReader(data), -5}, true},
		"file":                {f, true},
		"LimitedReader":       {&io.LimitedReader{R: bytes.NewReader(data), N: int64(len(data))}, true},
		"Len too small":       {lenReader{bytes.NewReader(data), len(data) - 1}, false},
		"LimitedReader short": {&io.LimitedReader{R: bytes.NewReader(data), N: int64(len(data) - 1)}, false},
		"entry past the end":  {bytes.NewReader(long), false},
		"entry past, no size": {io.MultiReader(bytes.NewReader(long)), false},
	}
	for name, c := range sources {
		r, err := NewReader(c.src)
		if err == nil {
			if d := r.Section("alpha"); d.U32() != 7 {
				t.Errorf("%s: first word wrong", name)
			}
		}
		if c.ok && err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !c.ok && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// The 2⁴⁰-byte entry is refused from the table alone.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = NewReader(bytes.NewReader(long))
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; !errors.Is(err, ErrCorrupt) || alloc > 4<<10 {
		t.Errorf("entry past the end: err = %v after allocating %d bytes", err, alloc)
	}
}

// A section longer than the read-ahead decodes the same from any source:
// each primitive lands across a refill, and the source may hand over one
// byte per Read.
func TestDecodeAcrossReadAhead(t *testing.T) {
	ints := make([]int32, bufSize/2+3)
	short, long := make([]float64, 97), make([]float64, bufSize/4+1)
	for i := range ints {
		ints[i] = int32(i * 7)
	}
	for i := range long {
		long[i] = float64(i) / 3
	}
	copy(short, long)
	w := NewWriter()
	e := w.Section("big")
	pad := string(make([]byte, bufSize-13))
	mid := string(make([]byte, bufSize+bufSize/8+1)) // more bytes than one read-ahead holds
	e.Str(pad)
	e.U64(1 << 40)
	e.Str(mid)
	e.Str(pad)
	e.I32s(ints)
	e.Str(pad[:bufSize-21])
	e.F64s(short)
	e.F64s(long)
	e.Str("end")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for name, src := range map[string]io.Reader{
		"bytes.Reader":        bytes.NewReader(data),
		"one byte per Read":   lenReader{iotest.OneByteReader(bytes.NewReader(data)), len(data)},
		"read whole, unsized": iotest.HalfReader(bytes.NewReader(data)),
	} {
		r, err := NewReader(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := r.Section("big")
		if d.Str() != pad || d.U64() != 1<<40 || d.Str() != mid || d.Str() != pad ||
			!slices.Equal(d.I32s(), ints) || d.Str() != pad[:bufSize-21] ||
			!slices.EqualFunc(d.F64s(), short, eq) || !slices.EqualFunc(d.F64s(), long, eq) || d.Str() != "end" {
			t.Errorf("%s: decoded values differ (err %v)", name, d.Err())
		}
		if err := d.Finish(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// twoRuns writes a container whose first section borrows a table, so
// WriteTo hands its destination several runs.
func twoRuns() *Writer {
	w := NewWriter()
	a := w.Section("a")
	a.U32(1)
	a.F64s(make([]float64, 2*borrowMin))
	a.Str("after the table")
	w.Section("b").Str("tail")
	return w
}

// WriteTo writes the same bytes whether the destination can Grow, takes
// one byte per Write or is a file.
func TestWriteToGrowableDestination(t *testing.T) {
	w := twoRuns()
	var buf bytes.Buffer
	n, err := w.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("Buffer: %d bytes reported, %d written, %v", n, buf.Len(), err)
	}
	var bytewise []byte
	oneByte := writerFunc(func(p []byte) (int, error) {
		for _, c := range p {
			bytewise = append(bytewise, c)
		}
		return len(p), nil
	})
	if n, err := w.WriteTo(oneByte); err != nil || n != int64(len(bytewise)) || !bytes.Equal(bytewise, buf.Bytes()) {
		t.Errorf("one byte per Write: %d bytes reported, %v, equal=%v", n, err, bytes.Equal(bytewise, buf.Bytes()))
	}
	path := filepath.Join(t.TempDir(), "c.snap")
	if err := WriteFile(path, func(f *os.File) error { _, err := w.WriteTo(f); return err }); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, buf.Bytes()) {
		t.Errorf("file: %d bytes, %v, want the Buffer's %d", len(got), err, buf.Len())
	}
	if _, err := NewReader(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

// An error from the k-th Write is returned with the bytes written so far,
// the failing Write's share included.
func TestWriteToErrorCountsBytes(t *testing.T) {
	w := twoRuns()
	boom := errors.New("boom")
	for k := 1; ; k++ {
		var got []byte
		calls := 0
		n, err := w.WriteTo(writerFunc(func(p []byte) (int, error) {
			if calls++; calls == k {
				got = append(got, p[:len(p)/2]...)
				return len(p) / 2, boom
			}
			got = append(got, p...)
			return len(p), nil
		}))
		if calls < k { // every Write succeeded: k has passed the last one
			if err != nil || calls < 4 { // the header and at least three runs
				t.Fatalf("%d Writes in all, err %v", calls, err)
			}
			return
		}
		if !errors.Is(err, boom) || n != int64(len(got)) || calls != k {
			t.Fatalf("Write %d fails: WriteTo returned %d, %v after %d calls; %d bytes written", k, n, err, calls, len(got))
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestStrRoundTrip(t *testing.T) {
	w := NewWriter()
	e := w.Section("strs")
	e.Str("")
	e.Str("batch_matrix")
	e.Str("qe: overloaded, admission queue full")
	e.Str("héllo\x00world") // arbitrary bytes, embedded NUL included
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	d := r.Section("strs")
	for _, want := range []string{"", "batch_matrix", "qe: overloaded, admission queue full", "héllo\x00world"} {
		if got := d.Str(); got != want {
			t.Errorf("Str() = %q, want %q", got, want)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestStrTruncated(t *testing.T) {
	// A declared length longer than the remaining bytes is the sticky
	// typed error, never a huge allocation or panic.
	d := &Decoder{b: binary.LittleEndian.AppendUint64(nil, 1<<40)}
	if got := d.Str(); got != "" {
		t.Fatalf("truncated Str() = %q", got)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("Err() = %v, want ErrCorrupt", d.Err())
	}
}
