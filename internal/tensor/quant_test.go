package tensor

import (
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

// TestConformanceGatherDequant checks the fused dequantizing gather
// against the unfused reference composition, exactly, across contexts.
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
// score kernel against the unfused reference composition, exactly.
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
