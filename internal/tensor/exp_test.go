package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// expEdges are the inputs around which math.Exp changes branch: the vector
// path's bounds and their neighbours, the subnormal and zero results below
// -708, the overflow above 709.78, and the float32 extremes.
var expEdges = append([]float32{-708, math.Nextafter32(-708, -1000), math.Nextafter32(-708, 0),
	709, math.Nextafter32(709, 1000), math.Nextafter32(709, 0), -745.1, -746, -1000,
	709.7, 709.8, 710, 88.7, 3e38, -3e38}, specials...)

// expAsm reports whether expRow runs its assembly here.
func expAsm() bool { return hasAVX2() && hasFMA() }

// sameBits64 is sameBits for the float64 sums.
func sameBits64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// expRowMismatch runs expRow on the current path into o (len(a) plus a
// guard element) and describes the first way it differs, bit for bit, from
// the math.Exp loop's outputs (written to want) and sum; "" when it does not.
func expRowMismatch(a []float32, m float32, o, want []float32) string {
	o[len(a)] = 7
	sum := expRow(o[:len(a):len(a)], a, m)
	wantSum := expRowGo(want[:len(a)], a, m, 0)
	for j := range a {
		if !sameBits(o[j], want[j]) {
			return fmt.Sprintf("a[%d] = %v (%#08x), m = %v: exp %#08x, want %#08x", j, a[j],
				math.Float32bits(a[j]), m, math.Float32bits(o[j]), math.Float32bits(want[j]))
		}
	}
	if o[len(a)] != 7 {
		return "expRow wrote past len(a)"
	}
	if !sameBits64(sum, wantSum) {
		return fmt.Sprintf("m = %v: sum %#016x, want %#016x", m, math.Float64bits(sum), math.Float64bits(wantSum))
	}
	return ""
}

// checkExpRow fails t when expRow on the current path is not the math.Exp
// loop bit for bit. The output starts off a 16-byte boundary for most
// lengths.
func checkExpRow(t testing.TB, name string, a []float32, m float32) {
	t.Helper()
	off := len(a) % 4
	o := make([]float32, off+len(a)+1)[off:]
	if msg := expRowMismatch(a, m, o, make([]float32, len(a))); msg != "" {
		t.Fatalf("%s len %d: %s", name, len(a), msg)
	}
}

// expSweep holds the assembly to the math.Exp loop on the float32s with
// bits from lo to hi, stride apart, split across GOMAXPROCS goroutines, with
// m = 0, which passes each input through unchanged. Packed into rows of
// 4096, a last-bit change in one float64 exponential can vanish into the
// row's sum; with lanes, each input instead sits alone among seven -708s,
// at a lane that rotates, and the sum of its row is its own exponential
// exactly from about -671 up.
func expSweep(t *testing.T, lo, hi, stride uint64, lanes bool) {
	t.Helper()
	setAVX2(t, true)
	row := 4096
	if lanes {
		row = 8
	}
	workers := runtime.GOMAXPROCS(0)
	span := (hi - lo) / stride / uint64(workers) * stride
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		from, to := lo+uint64(w)*span, lo+uint64(w+1)*span
		if w == workers-1 {
			to = hi + 1
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, o, want := make([]float32, 0, row), make([]float32, row+1), make([]float32, row)
			for bits := from; bits < to; bits += stride {
				x := math.Float32frombits(uint32(bits))
				if lanes {
					a = append(a[:0], -708, -708, -708, -708, -708, -708, -708, -708)
					a[bits/stride%8] = x
				} else {
					a = append(a, x)
				}
				if len(a) == row || bits+stride >= to {
					if msg := expRowMismatch(a, 0, o, want); msg != "" {
						t.Error(msg)
						return
					}
					a = a[:0]
				}
			}
		}()
	}
	wg.Wait()
}

// TestExpRowSweep holds the assembly to the math.Exp loop over every 257th
// float32 at or below -0 — every exponent, normal and subnormal, in range
// and out, -Inf and NaNs — in rows whose groups of four cross the range's
// bounds, then lane by lane over every 509th input in [-708, -0].
func TestExpRowSweep(t *testing.T) {
	if !expAsm() {
		t.Skip("no exp assembly on this machine: the math.Exp loop is the only path")
	}
	expSweep(t, 0x80000000, 0xffffffff, 257, false)
	expSweep(t, 0x80000000, uint64(math.Float32bits(-708)), 509, true)
	checkExpRow(t, "+0", []float32{0, 0, 0, 0}, 0)
}

// TestExpRowExhaustive holds the assembly to the math.Exp loop on every
// float32 in [-708, -0], all the inputs a softmax gives the vector path.
func TestExpRowExhaustive(t *testing.T) {
	if !expAsm() {
		t.Skip("no exp assembly on this machine: the math.Exp loop is the only path")
	}
	if testing.Short() {
		t.Skip("about 1.1e9 inputs; the strided sweep runs in -short")
	}
	expSweep(t, 0x80000000, uint64(math.Float32bits(-708)), 1, false)
}

// TestExpRowRows runs expRow on both paths over rows of every length from 1
// to 130 (so every tail after the eight-wide loop and the group of four),
// cut unaligned from their backing arrays, holding -Inf, NaN, ±0, spreads
// wider than 708 (subnormal and zero exponentials) and huge logits, with the
// row's maximum as m, as a softmax passes it, and with edge values as m.
func TestExpRowRows(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for _, avx2 := range axpyPaths() {
		setAVX2(t, avx2)
		for c := 1; c <= 130; c++ {
			for trial := 0; trial < 8; trial++ {
				a := make([]float32, trial%4+c)[trial%4:]
				scale := []float64{1, 30, 400, 1000}[trial/2]
				for j := range a {
					a[j] = float32(rng.NormFloat64() * scale)
					if rng.Intn(16) == 0 {
						a[j] = expEdges[rng.Intn(len(expEdges))]
					}
				}
				if trial == 7 {
					a[rng.Intn(c)] = 3e38
				}
				m := a[0]
				for _, v := range a {
					if v > m {
						m = v
					}
				}
				name := fmt.Sprintf("avx2=%v C=%d trial=%d", avx2, c, trial)
				checkExpRow(t, name, a, m)
				checkExpRow(t, name, a, expEdges[(c+trial)%len(expEdges)])
			}
		}
	}
}

// FuzzExpRow decodes bytes into a row length, an m and the row, half of the
// values from the edge table, and holds the assembly to the math.Exp loop.
func FuzzExpRow(f *testing.F) {
	f.Add([]byte{9, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{13, 0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x8b, 0x8c, 0x8d})
	f.Add([]byte{101, 0x7f, 0xff, 0x91, 0x92, 0x93, 0x94, 0, 200, 0, 100, 0x90, 0x8f, 0x8e})
	f.Add([]byte{4, 0x8e, 0, 0x10, 0, 0x20, 0, 0x30, 0, 0x40})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if !expAsm() {
			t.Skip("no exp assembly on this machine")
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// A byte with the top bit set picks an edge value; otherwise it and
		// the next byte are a multiple of 1/16 in [-1024, 1024).
		value := func() float32 {
			b := next()
			if b&0x80 != 0 {
				return expEdges[int(b&0x7f)%len(expEdges)]
			}
			return float32(int16(uint16(b)<<9|uint16(next())<<1)) / 32
		}
		a := make([]float32, int(next())%140)
		m := value()
		for j := range a {
			a[j] = value()
		}
		checkExpRow(t, "fuzz", a, m)
	})
}

// BenchmarkRowSoftmax times one serial RowSoftmax of the link-prediction
// loss's shape, a 1024-row batch against one positive and 100 negatives, on
// each path.
func BenchmarkRowSoftmax(b *testing.B) {
	a := randn(rand.New(rand.NewSource(1)), 1024, 101)
	out := New(a.Rows, a.Cols)
	for _, avx2 := range axpyPaths() {
		b.Run(fmt.Sprintf("avx2=%v", avx2), func(b *testing.B) {
			setAVX2(b, avx2)
			for b.Loop() {
				rowSoftmaxRange(out, a, 0, a.Rows)
			}
		})
	}
}
