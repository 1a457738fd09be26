package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestF16RoundTrip checks the binary16 conversions against the format's
// defining properties: exact widening, round-to-nearest-even on narrow,
// and correct special-value handling.
func TestF16RoundTrip(t *testing.T) {
	// Every binary16 bit pattern widens to float32 and narrows back to
	// itself (NaNs excepted: they widen to a NaN and narrow to a NaN).
	for b := 0; b < 1<<16; b++ {
		h := uint16(b)
		f := F16ToF32(h)
		got := F16FromF32(f)
		if exp := h >> 10 & 0x1f; exp == 0x1f && h&0x3ff != 0 {
			if !math.IsNaN(float64(f)) || got>>10&0x1f != 0x1f || got&0x3ff == 0 {
				t.Fatalf("NaN pattern %#04x: widened to %v, narrowed to %#04x", h, f, got)
			}
			continue
		}
		if got != h {
			t.Fatalf("pattern %#04x -> %v -> %#04x", h, f, got)
		}
	}
	cases := []struct {
		f    float32
		want uint16
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3c00},
		{-2, 0xc000},
		{65504, 0x7bff}, // binary16 max
		{65520, 0x7c00}, // rounds to +Inf
		{float32(math.Inf(1)), 0x7c00},
		{float32(math.Inf(-1)), 0xfc00},
		{2.9802322e-8, 0x0000}, // half the min subnormal: ties to even (zero)
		{5.9604645e-8, 0x0001}, // min subnormal, 2^-24
		{6.097555e-5, 0x03ff},  // max subnormal, 1023*2^-24
		{6.102e-5, 0x0400},     // rounds up into the min normal
		{1.0009766, 0x3c01},    // 1 + 2^-10
		{1.0004883, 0x3c00},    // 1 + 2^-11: ties to even (mantissa 0)
		{1.0014648, 0x3c02},    // 1 + 3*2^-11: ties to even (mantissa 2)
	}
	for _, c := range cases {
		if got := F16FromF32(c.f); got != c.want {
			t.Errorf("F16FromF32(%v) = %#04x, want %#04x", c.f, got, c.want)
		}
	}
	if got := F16FromF32(float32(math.NaN())); got&0x7c00 != 0x7c00 || got&0x3ff == 0 {
		t.Errorf("F16FromF32(NaN) = %#04x, not a NaN pattern", got)
	}
}

// TestQuantizeRowI8 checks the affine int8 encoding: endpoints exact,
// constant rows exact, everything else within half a step.
func TestQuantizeRowI8(t *testing.T) {
	q := NewQTable(QuantI8, 2, 4)
	q.QuantizeRow(0, []float32{-1, 0, 0.5, 3})
	got := make([]float32, 4)
	q.DequantRowInto(0, got)
	if got[0] != -1 || got[3] != 3 {
		t.Fatalf("row endpoints %v, want -1 and 3 exact", got)
	}
	step := q.Scale[0]
	for j, want := range []float32{-1, 0, 0.5, 3} {
		if d := got[j] - want; d < -step/2 || d > step/2 {
			t.Fatalf("element %d: %v vs %v, off by more than half a step (%v)", j, got[j], want, step)
		}
	}
	q.QuantizeRow(1, []float32{2.5, 2.5, 2.5, 2.5})
	q.DequantRowInto(1, got)
	for j, v := range got {
		if v != 2.5 {
			t.Fatalf("constant row element %d = %v, want exactly 2.5", j, v)
		}
	}
}

// quantKinds are the quantized encodings the conformance loops cover.
var quantKinds = []QuantKind{QuantF16, QuantI8}

// dequantMismatch runs dequantRow on the chosen path into a row of w
// elements followed by a guard element, and describes the first element
// whose bits differ from the element function's; "" when none does. An
// int8 NaN may carry either operand's payload (see sameBits); an fp16 one
// must match exactly.
func dequantMismatch(avx2 bool, kind QuantKind, raw []byte, scale, zero float32, w int) string {
	saved := useAVX2
	useAVX2 = avx2
	defer func() { useAVX2 = saved }()
	got := make([]float32, 1+w+1)[1:] // off the 8-byte boundary
	got[w] = 7
	dequantRow(got[:w:w], raw, kind, scale, zero)
	if got[w] != 7 {
		return "dequantRow wrote past the row"
	}
	for j, v := range got[:w] {
		var want float32
		if kind == QuantF16 {
			want = deqF16(raw[2*j:])
		} else {
			want = deqI8(raw[j], scale, zero)
		}
		if math.Float32bits(v) != math.Float32bits(want) && (kind == QuantF16 || !(v != v && want != want)) {
			return fmt.Sprintf("%s w=%d scale=%v zero=%v element %d: %#08x, element function %#08x",
				kind, w, scale, zero, j, math.Float32bits(v), math.Float32bits(want))
		}
	}
	return ""
}

// checkDequantRow holds dequantRow to the element functions on every path
// this machine has.
func checkDequantRow(t testing.TB, kind QuantKind, raw []byte, scale, zero float32, w int) {
	t.Helper()
	for _, avx2 := range axpyPaths() {
		if msg := dequantMismatch(avx2, kind, raw, scale, zero, w); msg != "" {
			t.Fatalf("avx2=%v: %s", avx2, msg)
		}
	}
}

// TestDequantRowExhaustive holds the vector dequantizer to the element
// functions bit for bit: all 65 536 binary16 patterns (every NaN quiet),
// every byte under edge-valued int8 parameters, and every width from 0 to
// 67 cut at odd byte offsets, so the eight-wide body and the scalar tail
// both run on misaligned rows.
func TestDequantRowExhaustive(t *testing.T) {
	halves := make([]byte, 1+2<<16)
	for h := 0; h < 1<<16; h++ {
		binary.LittleEndian.PutUint16(halves[1+2*h:], uint16(h))
	}
	checkDequantRow(t, QuantF16, halves[1:], 0, 0, 1<<16)
	for h := range 1 << 16 {
		if f := F16ToF32(uint16(h)); f != f && math.Float32bits(f)&0x7fc00000 != 0x7fc00000 {
			t.Fatalf("F16ToF32(%#04x) = %#08x, not a quiet NaN", h, math.Float32bits(f))
		}
	}

	all := make([]byte, 1+256)
	for b := range 256 {
		all[1+b] = byte(b)
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, scale := range []float32{0, 1, -1, 1.0 / 255, denormal, 1e30, inf, nan} {
		for _, zero := range []float32{0, negZero, -1, 0.25, 1e30, -inf} {
			checkDequantRow(t, QuantI8, all[1:], scale, zero, 256)
		}
	}

	rng := rand.New(rand.NewSource(501))
	pool := make([]byte, 1024)
	rng.Read(pool)
	for w := 0; w <= 67; w++ {
		for off := 1; off < 8; off += 2 {
			checkDequantRow(t, QuantF16, pool[off:], 0, 0, w)
			checkDequantRow(t, QuantI8, pool[off:], float32(rng.NormFloat64()), float32(rng.NormFloat64()), w)
		}
	}
}

// FuzzDequantRow decodes bytes into a kind, a width, an offset, the int8
// parameters as raw float32 bits, and the row's stored bytes, and holds the
// vector dequantizer to the element functions.
func FuzzDequantRow(f *testing.F) {
	f.Add([]byte{0, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0x01, 0x7c, 0xff, 0x7d, 0x00, 0x7e, 0x00, 0x04, 0xff, 0x03})
	f.Add([]byte{1, 17, 3, 0x81, 0x80, 0x80, 0x3b, 0, 0, 0x80, 0xbf, 0, 1, 2, 127, 128, 200, 254, 255})
	f.Add([]byte{1, 8, 0, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{0, 79, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		bits := func() float32 {
			return math.Float32frombits(uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24)
		}
		kind := quantKinds[next()&1]
		w, off := int(next())%80, int(next())%4
		scale, zero := bits(), bits()
		raw := make([]byte, off+w*kind.ElemBytes())
		for i := off; i < len(raw); i++ {
			raw[i] = next()
		}
		checkDequantRow(t, kind, raw[off:], scale, zero, w)
	})
}

// TestConformanceGatherDequant checks the fused dequantizing gather
// against the unfused scalar reference, exactly, across contexts.
func TestConformanceGatherDequant(t *testing.T) {
	forEachContext(t, func(t *testing.T, c *Compute) {
		rng := rand.New(rand.NewSource(71))
		for trial := 0; trial < 60; trial++ {
			rows, cols := randDim(rng), randDim(rng)
			table := New(rows, cols)
			table.RandNormal(rng, 1)
			idx := randIdx(rng, randDim(rng), rows)
			for _, kind := range quantKinds {
				q := Quantize(table, kind)
				got := c.GatherDequant(q, idx)
				exactEqual(t, fmt.Sprintf("GatherDequant/%s", kind), got, RefGatherDequant(q, idx))
			}
		}
	})
}

// TestConformanceGatherMatMulTBDequant checks the fused dequantizing
// score kernel against the unfused scalar reference, exactly.
func TestConformanceGatherMatMulTBDequant(t *testing.T) {
	forEachContext(t, func(t *testing.T, c *Compute) {
		rng := rand.New(rand.NewSource(72))
		for trial := 0; trial < 60; trial++ {
			n, k := randDim(rng), randDim(rng)
			a := New(n, k)
			a.RandNormal(rng, 1)
			table := New(randDim(rng)+1, k)
			table.RandNormal(rng, 1)
			idx := randIdx(rng, randDim(rng), table.Rows)
			for _, kind := range quantKinds {
				q := Quantize(table, kind)
				got := c.GatherMatMulTBDequant(a, q, idx)
				exactEqual(t, fmt.Sprintf("GatherMatMulTBDequant/%s", kind), got, RefGatherMatMulTBDequant(a, q, idx))
			}
		}
	})
}

// TestQuantDeterministicAcrossWorkers pins the determinism contract the
// storage layer depends on: one quantized table, identical fused results
// at every worker count.
func TestQuantDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	table := New(300, 48)
	table.RandNormal(rng, 1)
	a := New(64, 48)
	a.RandNormal(rng, 1)
	idx := randIdx(rng, 500, table.Rows)
	for _, kind := range quantKinds {
		q := Quantize(table, kind)
		want := NewCompute(1, nil).GatherMatMulTBDequant(a, q, idx)
		for _, w := range []int{2, 3, 8} {
			got := NewCompute(w, nil).GatherMatMulTBDequant(a, q, idx)
			exactEqual(t, fmt.Sprintf("%s/workers%d", kind, w), got, want)
		}
	}
}

func TestParseQuant(t *testing.T) {
	for _, c := range []struct {
		s    string
		kind QuantKind
		eb   int
	}{{"", QuantNone, 4}, {"fp16", QuantF16, 2}, {"int8", QuantI8, 1}} {
		k, err := ParseQuant(c.s)
		if err != nil || k != c.kind || k.ElemBytes() != c.eb || k.String() != c.s {
			t.Fatalf("ParseQuant(%q) = %v, %v (elem %d, string %q)", c.s, k, err, k.ElemBytes(), k.String())
		}
	}
	if _, err := ParseQuant("int4"); err == nil {
		t.Fatal("ParseQuant accepted int4")
	}
}

// BenchmarkGatherMatMulTBDequant times negative scoring against a quantized
// table, fused (only the rows each dot product touches are dequantized) and
// materialized (the whole table is dequantized to float32, then scored —
// what a reader without the dequantizing kernel would do per partition load
// or snapshot): 256 queries by 500 negatives, dim 64, a 4000-row table.
func BenchmarkGatherMatMulTBDequant(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	qry, table := randn(rng, 256, 64), randn(rng, 4000, 64)
	idx := randIdx(rng, 500, table.Rows)
	c := NewCompute(4, nil)
	for _, kind := range quantKinds {
		q := Quantize(table, kind)
		b.Run(kind.String()+"/fused", func(b *testing.B) {
			for b.Loop() {
				c.GatherMatMulTBDequant(qry, q, idx)
			}
		})
		b.Run(kind.String()+"/materialized", func(b *testing.B) {
			for b.Loop() {
				c.GatherMatMulTB(qry, q.Dequant(), idx)
			}
		})
	}
}

// BenchmarkGatherDequant times serving's quantized gather at its shape:
// 24 000 random rows of a 100 000 x 64 table, per encoding, on the vector
// path and on the element loop, beside a float32 copy of the same rows.
func BenchmarkGatherDequant(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	table := randn(rng, 100000, 64)
	idx := randIdx(rng, 24000, table.Rows)
	out := New(len(idx), table.Cols)
	b.Run("float32/copy", func(b *testing.B) {
		for b.Loop() {
			for i, r := range idx {
				copy(out.Row(i), table.Row(int(r)))
			}
		}
	})
	for _, kind := range quantKinds {
		q := Quantize(table, kind)
		for _, avx2 := range axpyPaths() {
			b.Run(fmt.Sprintf("%s/avx2=%v", kind, avx2), func(b *testing.B) {
				setAVX2(b, avx2)
				for b.Loop() {
					GatherDequantInto(out, q, idx)
				}
			})
		}
	}
}
