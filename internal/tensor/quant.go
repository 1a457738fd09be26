package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Quantized tables. A QTable holds a read-only [Rows x Cols] matrix whose
// elements are stored compressed — IEEE 754 binary16 ("fp16") or per-row
// affine uint8 ("int8") — alongside the per-row dequantization parameters.
//
// Quantization happens exactly once, when a dataset is ingested; every
// consumer dequantizes the same stored bytes through the same pure
// element function. The fused kernels below (GatherDequant,
// GatherMatMulTBDequant) therefore satisfy the package's bitwise
// determinism contract: their results are exactly equal to dequantizing
// the whole table to float32 and running the plain kernels, at every
// worker count — parallelism only splits output rows, never a sum.

// QuantKind names a storage encoding for table elements.
type QuantKind uint8

const (
	// QuantNone is plain float32 storage (4 bytes/element).
	QuantNone QuantKind = iota
	// QuantF16 is IEEE 754 binary16 storage (2 bytes/element,
	// little-endian), quantized with round-to-nearest-even.
	QuantF16
	// QuantI8 is per-row affine uint8 storage (1 byte/element) with a
	// float32 (scale, zero) pair per row: v ≈ zero + scale*q.
	QuantI8
)

// ParseQuant maps the user-facing mode names ("", "fp16", "int8") to a
// QuantKind.
func ParseQuant(s string) (QuantKind, error) {
	switch s {
	case "":
		return QuantNone, nil
	case "fp16":
		return QuantF16, nil
	case "int8":
		return QuantI8, nil
	}
	return QuantNone, fmt.Errorf("tensor: unknown quantization mode %q (want fp16 or int8)", s)
}

// String returns the mode name ParseQuant accepts.
func (k QuantKind) String() string {
	switch k {
	case QuantF16:
		return "fp16"
	case QuantI8:
		return "int8"
	}
	return ""
}

// ElemBytes returns the stored size of one element.
func (k QuantKind) ElemBytes() int {
	switch k {
	case QuantF16:
		return 2
	case QuantI8:
		return 1
	}
	return 4
}

// F16FromF32 converts f to IEEE 754 binary16 with round-to-nearest-even,
// the quantization step. NaN maps to a quiet NaN, overflow to ±Inf.
func F16FromF32(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xff
	man := b & 0x7fffff
	switch {
	case exp == 0xff: // Inf or NaN
		if man != 0 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	case exp > 142: // 2^16 and above overflow binary16's max exponent
		return sign | 0x7c00
	case exp < 103: // below half the smallest subnormal: rounds to zero
		return sign
	case exp <= 112: // subnormal halves: shift the implicit 1 into the mantissa
		man |= 0x800000
		shift := uint32(126 - exp)
		q := man >> shift
		rem := man & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && q&1 == 1) {
			q++
		}
		return sign | uint16(q) // carry into exponent 1 is correct encoding
	default: // normal: round 23-bit mantissa to 10 bits
		q := man >> 13
		rem := man & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && q&1 == 1) {
			q++
		}
		// A mantissa carry (q == 0x400) bumps the exponent by one, which
		// the addition below encodes naturally (and can reach Inf).
		return sign | uint16(uint32(exp-112)<<10+q)
	}
}

// F16ToF32 widens a binary16 bit pattern to float32 exactly (every
// binary16 value is representable in float32).
func F16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0x1f: // Inf or NaN
		return math.Float32frombits(sign | 0x7f800000 | man<<13)
	case exp != 0: // normal
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	case man == 0: // zero
		return math.Float32frombits(sign)
	default: // subnormal: normalize by shifting the leading 1 into place
		e := uint32(113)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (man&0x3ff)<<13)
	}
}

// deqF16 dequantizes one little-endian binary16 element. Shared by the
// fused kernels and the Ref* references so both walk the identical
// element function.
func deqF16(raw []byte) float32 {
	return F16ToF32(binary.LittleEndian.Uint16(raw))
}

// deqI8 dequantizes one affine uint8 element.
func deqI8(q byte, scale, zero float32) float32 {
	return zero + scale*float32(q)
}

// QTable is a quantized read-only table: Raw holds Rows*Cols elements of
// Kind.ElemBytes() each in row-major order; for QuantI8, Scale and Zero
// hold the per-row affine parameters.
type QTable struct {
	Kind       QuantKind
	Rows, Cols int
	Raw        []byte
	Scale      []float32 // per row; QuantI8 only
	Zero       []float32 // per row; QuantI8 only
}

// NewQTable returns an empty quantized table of the given shape. Kind
// must be QuantF16 or QuantI8.
func NewQTable(kind QuantKind, rows, cols int) *QTable {
	if kind != QuantF16 && kind != QuantI8 {
		panic(fmt.Sprintf("tensor: NewQTable kind %d is not quantized", kind))
	}
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	q := &QTable{Kind: kind, Rows: rows, Cols: cols, Raw: make([]byte, rows*cols*kind.ElemBytes())}
	if kind == QuantI8 {
		q.Scale = make([]float32, rows)
		q.Zero = make([]float32, rows)
	}
	return q
}

// Quantize compresses t into a fresh QTable.
func Quantize(t *Tensor, kind QuantKind) *QTable {
	q := NewQTable(kind, t.Rows, t.Cols)
	for i := 0; i < t.Rows; i++ {
		q.QuantizeRow(i, t.Row(i))
	}
	return q
}

// QuantizeRow compresses row into row i of q. For QuantI8 the affine
// parameters are chosen from the row's min/max so that both endpoints are
// representable; a constant row gets scale 0 and dequantizes exactly.
func (q *QTable) QuantizeRow(i int, row []float32) {
	if len(row) != q.Cols {
		panic(fmt.Sprintf("tensor: QuantizeRow width %d, table width %d", len(row), q.Cols))
	}
	switch q.Kind {
	case QuantF16:
		raw := q.Raw[i*q.Cols*2:]
		for j, v := range row {
			binary.LittleEndian.PutUint16(raw[j*2:], F16FromF32(v))
		}
	case QuantI8:
		if len(row) == 0 {
			return
		}
		lo, hi := row[0], row[0]
		for _, v := range row[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		scale := (hi - lo) / 255
		q.Scale[i], q.Zero[i] = scale, lo
		raw := q.Raw[i*q.Cols:]
		for j, v := range row {
			var u float64
			if scale != 0 {
				u = math.Round(float64((v - lo) / scale))
			}
			if u < 0 {
				u = 0
			} else if u > 255 {
				u = 255
			}
			raw[j] = byte(u)
		}
	}
}

// DequantRowInto decompresses row i of q into dst (length Cols).
func (q *QTable) DequantRowInto(i int, dst []float32) {
	if len(dst) != q.Cols {
		panic(fmt.Sprintf("tensor: DequantRowInto width %d, table width %d", len(dst), q.Cols))
	}
	switch q.Kind {
	case QuantF16:
		raw := q.Raw[i*q.Cols*2:]
		for j := range dst {
			dst[j] = deqF16(raw[j*2:])
		}
	case QuantI8:
		raw := q.Raw[i*q.Cols : i*q.Cols+q.Cols]
		scale, zero := q.Scale[i], q.Zero[i]
		for j, u := range raw {
			dst[j] = deqI8(u, scale, zero)
		}
	}
}

// Dequant decompresses the whole table to float32.
func (q *QTable) Dequant() *Tensor {
	t := New(q.Rows, q.Cols)
	for i := 0; i < q.Rows; i++ {
		q.DequantRowInto(i, t.Row(i))
	}
	return t
}

// GatherDequant returns the dequantized rows of q selected by idx, in
// order — Gather(q.Dequant(), idx) without materializing the float32
// table.
func GatherDequant(q *QTable, idx []int32) *Tensor {
	return (*Compute)(nil).GatherDequant(q, idx)
}

func gatherDequantRange(out *Tensor, q *QTable, idx []int32, start, end int) {
	for i := start; i < end; i++ {
		q.DequantRowInto(int(idx[i]), out.Data[i*q.Cols:(i+1)*q.Cols])
	}
}

// GatherDequant returns the dequantized rows of q selected by idx.
func (c *Compute) GatherDequant(q *QTable, idx []int32) *Tensor {
	out := c.alloc(len(idx), q.Cols)
	if c.serialFor(len(idx), len(idx)*q.Cols) {
		gatherDequantRange(out, q, idx, 0, len(idx))
		return out
	}
	c.fanOut(len(idx), func(s, e int) { gatherDequantRange(out, q, idx, s, e) })
	return out
}

// GatherMatMulTBDequant is GatherMatMulTB against a quantized table:
// out[i][j] = ⟨a[i], dequant(q[idx[j]])⟩, fused so neither the gathered
// matrix nor the dequantized table is materialized. Exactly equal to
// GatherMatMulTB(a, q.Dequant(), idx).
func GatherMatMulTBDequant(a *Tensor, q *QTable, idx []int32) *Tensor {
	return (*Compute)(nil).GatherMatMulTBDequant(a, q, idx)
}

// GatherMatMulTBDequant computes out[i][j] = ⟨a[i], dequant(q[idx[j]])⟩.
func (c *Compute) GatherMatMulTBDequant(a *Tensor, q *QTable, idx []int32) *Tensor {
	if a.Cols != q.Cols {
		panic(fmt.Sprintf("tensor: GatherMatMulTBDequant width mismatch %d vs %d", a.Cols, q.Cols))
	}
	out := c.alloc(a.Rows, len(idx))
	c.mulTB(out, a, tbSource{q: q, idx: idx}, false)
	return out
}
