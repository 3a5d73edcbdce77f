package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
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
	a.F64(math.Pi)
	a.I32s([]int32{1, -2, 3})
	a.F64s([]float64{0, math.Inf(1), -0.5})
	a.Bools([]bool{true, false, true, true, false, false, true, false, true})
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
	d, err := r.Section("alpha")
	if err != nil {
		t.Fatalf("Section: %v", err)
	}
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
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.I32s(); len(got) != 3 || got[0] != 1 || got[1] != -2 || got[2] != 3 {
		t.Errorf("I32s = %v", got)
	}
	if got := d.F64s(); len(got) != 3 || got[0] != 0 || !math.IsInf(got[1], 1) || got[2] != -0.5 {
		t.Errorf("F64s = %v", got)
	}
	want := []bool{true, false, true, true, false, false, true, false, true}
	got := d.Bools()
	if len(got) != len(want) {
		t.Fatalf("Bools length %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Bools[%d] = %v", i, got[i])
		}
	}
	if err := d.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
	if _, err := r.Section("gamma"); !errors.Is(err, ErrCorrupt) {
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

func TestChecksumCatchesPayloadFlips(t *testing.T) {
	data := buildContainer(t)
	headerEnd := headerLen + 2*entryLen
	for pos := headerEnd; pos < len(data); pos += 7 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		if _, err := NewReader(bytes.NewReader(mut)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: err = %v, want ErrChecksum", pos, err)
		}
	}
}

func TestTruncationIsTyped(t *testing.T) {
	data := buildContainer(t)
	for cut := 0; cut < len(data); cut += 5 {
		_, err := NewReader(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
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

// A bool count within 7 of 2⁶⁴ wraps the round-up to whole bytes to 0; the
// count has to be refused before that arithmetic, not after it.
func TestBoolsCountOverflow(t *testing.T) {
	for _, n := range []uint64{^uint64(0), ^uint64(0) - 6, 1 << 63, 9} {
		e := &Encoder{}
		e.U64(n)
		e.U8(0xff)
		d := &Decoder{b: e.b}
		if got := d.Bools(); got != nil {
			t.Errorf("count %d: Bools returned %d flags", n, len(got))
		}
		if !errors.Is(d.Err(), ErrCorrupt) {
			t.Errorf("count %d: Err = %v, want ErrCorrupt", n, d.Err())
		}
	}
	// The largest count one byte does hold still decodes.
	e := &Encoder{}
	e.U64(8)
	e.U8(0x81)
	d := &Decoder{b: e.b}
	got := d.Bools()
	if err := d.Finish(); err != nil || len(got) != 8 || !got[0] || got[1] || !got[7] {
		t.Errorf("8 flags in one byte: %v, err %v", got, err)
	}
}

// Slices move as one block; the bytes are those of the per-element writers.
func TestSliceCodecMatchesElements(t *testing.T) {
	i32 := []int32{0, -1, 1 << 30, math.MinInt32}
	f64 := []float64{0, -0.0, 1.5, math.Inf(1), math.MaxFloat64}
	f32 := []float32{0, 2.5, float32(math.Inf(-1))}
	got, want := &Encoder{b: []byte{7}}, &Encoder{b: []byte{7}}
	got.I32s(i32)
	got.F64s(f64)
	got.F32s(f32)
	got.I32s(nil)
	want.U64(uint64(len(i32)))
	for _, v := range i32 {
		want.I32(v)
	}
	want.U64(uint64(len(f64)))
	for _, v := range f64 {
		want.F64(v)
	}
	want.U64(uint64(len(f32)))
	for _, v := range f32 {
		want.U32(math.Float32bits(v))
	}
	want.U64(0)
	if !bytes.Equal(got.b, want.b) {
		t.Fatalf("slice encoders wrote\n%x\nelement encoders wrote\n%x", got.b, want.b)
	}
	d := &Decoder{b: got.b[1:]}
	if a, b, c, e := d.I32s(), d.F64s(), d.F32s(), d.I32s(); !slices.Equal(a, i32) ||
		!slices.EqualFunc(b, f64, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) ||
		!slices.Equal(c, f32) || len(e) != 0 {
		t.Fatalf("decoded %v %v %v %v", a, b, c, e)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	// A count the bytes cannot back fails before any element is read.
	short := &Decoder{b: got.b[1 : 1+8+4*len(i32)-1]}
	if s := short.I32s(); s != nil || !errors.Is(short.Err(), ErrCorrupt) {
		t.Fatalf("short slice: %v, err %v", s, short.Err())
	}
}

// lenReader claims a length that need not be the truth.
type lenReader struct {
	io.Reader
	n int
}

func (l lenReader) Len() int { return l.n }

// NewReader sizes its buffer from the source when it can; the size is a
// hint, and every kind of source yields the same container.
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
	sources := map[string]io.Reader{
		"bytes.Reader":  bytes.NewReader(data),
		"bytes.Buffer":  bytes.NewBuffer(data),
		"no size":       io.MultiReader(bytes.NewReader(data)),
		"Len too small": lenReader{bytes.NewReader(data), 1},
		"Len too large": lenReader{bytes.NewReader(data), 4 * len(data)},
		"Len negative":  lenReader{bytes.NewReader(data), -5},
		"file":          f,
	}
	for name, src := range sources {
		r, err := NewReader(src)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		d, err := r.Section("alpha")
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := d.U32(); got != 7 {
			t.Errorf("%s: first word %d", name, got)
		}
	}
	// A file already read into: Stat's size overstates what is left.
	if _, err := f.Seek(3, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if got, err := readAll(f); err != nil || !bytes.Equal(got, data[3:]) {
		t.Errorf("file read from offset 3: %d bytes, err %v, want %d", len(got), err, len(data)-3)
	}
}

// WriteTo's output does not depend on whether the destination can Grow.
func TestWriteToGrowableDestination(t *testing.T) {
	w := NewWriter()
	w.Section("a").F64s(make([]float64, 1000))
	w.Section("b").Str("tail")
	var buf bytes.Buffer
	var plain []byte
	n1, err1 := w.WriteTo(&buf)
	n2, err2 := w.WriteTo(writerFunc(func(p []byte) (int, error) { plain = append(plain, p...); return len(p), nil }))
	if err1 != nil || err2 != nil || n1 != n2 || !bytes.Equal(buf.Bytes(), plain) {
		t.Fatalf("Buffer got %d bytes (%v), plain writer %d (%v), equal=%v", n1, err1, n2, err2, bytes.Equal(buf.Bytes(), plain))
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestU8RoundTrip(t *testing.T) {
	w := NewWriter()
	s := w.Section("bytes")
	s.U8(0)
	s.U8(2)
	s.U8(255)
	s.U32(9)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("bytes")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []uint8{0, 2, 255} {
		if got := d.U8(); got != want {
			t.Fatalf("U8 = %d, want %d", got, want)
		}
	}
	if got := d.U32(); got != 9 {
		t.Fatalf("U32 after U8s = %d", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	// Reading past the end is a sticky typed error, not a panic.
	d2, _ := r.Section("bytes")
	for i := 0; i < 8; i++ {
		d2.U8()
	}
	d2.U8()
	if !errors.Is(d2.Err(), ErrCorrupt) {
		t.Fatalf("overread err = %v, want ErrCorrupt", d2.Err())
	}
}

// TestF32RoundTrip covers the compact-table primitives: exact bit
// round-trip including the infinities the float32 distance tables use as
// their unreachable sentinel.
func TestF32RoundTrip(t *testing.T) {
	w := NewWriter()
	e := w.Section("f32")
	e.U32(math.Float32bits(1.5))
	e.F32s([]float32{0, float32(math.Inf(1)), -2.25, math.MaxFloat32})
	e.F32s(nil)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	d, err := r.Section("f32")
	if err != nil {
		t.Fatalf("Section: %v", err)
	}
	if got := math.Float32frombits(d.U32()); got != 1.5 {
		t.Errorf("scalar = %v", got)
	}
	s := d.F32s()
	want := []float32{0, float32(math.Inf(1)), -2.25, math.MaxFloat32}
	if len(s) != len(want) {
		t.Fatalf("F32s len = %d", len(s))
	}
	for i := range want {
		if math.Float32bits(s[i]) != math.Float32bits(want[i]) {
			t.Errorf("F32s[%d] = %v, want %v", i, s[i], want[i])
		}
	}
	if got := d.F32s(); len(got) != 0 {
		t.Errorf("nil F32s decoded to %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// A truncated f32 slice is the sticky typed error, not a panic.
	trunc := buf.Bytes()[:buf.Len()-2]
	if r2, err := NewReader(bytes.NewReader(trunc)); err == nil {
		d2, err := r2.Section("f32")
		if err == nil {
			d2.U32()
			d2.F32s()
			d2.F32s()
			if d2.Err() == nil && d2.Finish() == nil {
				t.Fatal("truncated container decoded cleanly")
			}
		}
	}
}

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
	d, err := r.Section("strs")
	if err != nil {
		t.Fatal(err)
	}
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
