package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestParamSetRegistration(t *testing.T) {
	ps := NewParamSet()
	rng := rand.New(rand.NewSource(1))
	a := ps.NewGlorot("a", 3, 4, rng)
	b := ps.New("b", 2, 2)
	if ps.Get("a") != a || ps.Get("b") != b {
		t.Fatal("lookup broken")
	}
	if ps.NumParams() != 12+4 {
		t.Fatalf("NumParams = %d", ps.NumParams())
	}
	if len(ps.All()) != 2 {
		t.Fatal("All broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name must panic")
		}
	}()
	ps.New("a", 1, 1)
}

// quadratic loss f(w) = sum(w^2) has gradient 2w; every optimizer must
// reduce it monotonically toward zero.
func optimizeQuadratic(t *testing.T, opt Optimizer, steps int) float64 {
	t.Helper()
	ps := NewParamSet()
	p := ps.New("w", 4, 4)
	rng := rand.New(rand.NewSource(2))
	p.Value.RandNormal(rng, 1)
	for s := 0; s < steps; s++ {
		g := p.Value.Clone()
		g.ScaleInPlace(2)
		opt.Step(p, g)
	}
	return p.Value.Norm2()
}

func TestOptimizersConverge(t *testing.T) {
	if n := optimizeQuadratic(t, &SGD{LR: 0.1}, 100); n > 1e-3 {
		t.Fatalf("SGD norm %g", n)
	}
	if n := optimizeQuadratic(t, &SGD{LR: 0.05, Momentum: 0.9}, 200); n > 1e-2 {
		t.Fatalf("SGD+momentum norm %g", n)
	}
	if n := optimizeQuadratic(t, NewAdam(0.05), 300); n > 1e-2 {
		t.Fatalf("Adam norm %g", n)
	}
	if n := optimizeQuadratic(t, NewAdaGrad(0.5), 300); n > 1e-1 {
		t.Fatalf("AdaGrad norm %g", n)
	}
}

func TestSparseAdaGradShrinksSteps(t *testing.T) {
	opt := NewSparseAdaGrad(1.0)
	row := []float32{0, 0}
	grad := []float32{1, 1}
	var state float32
	state = opt.StepRow(row, grad, state)
	first := float64(-row[0])
	before := row[0]
	state = opt.StepRow(row, grad, state)
	second := float64(before - row[0])
	if !(first > 0 && second > 0 && second < first) {
		t.Fatalf("steps %g then %g; AdaGrad must decay", first, second)
	}
}

// TestStepRowIsTheScalarUpdate holds StepRow's axpy update to the scalar
// statement row[i] -= scale·g[i], bit for bit, signed zeros included.
func TestStepRowIsTheScalarUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	opt := NewSparseAdaGrad(0.7)
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(70)
		row, grad := make([]float32, d), make([]float32, d)
		for j := range row {
			row[j], grad[j] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
		}
		if trial%3 == 0 {
			row[rng.Intn(d)], grad[rng.Intn(d)] = float32(math.Copysign(0, -1)), 0
		}
		state := float32(rng.Float64())
		var sq float64
		for _, g := range grad {
			sq += float64(g) * float64(g)
		}
		wantState := state + float32(sq/float64(d))
		scale := opt.LR / (float32(math.Sqrt(float64(wantState))) + opt.Eps)
		want := append([]float32(nil), row...)
		for j, g := range grad {
			want[j] -= float32(scale * g)
		}
		if got := opt.StepRow(row, grad, state); got != wantState {
			t.Fatalf("trial %d: state %v, want %v", trial, got, wantState)
		}
		for j := range want {
			if math.Float32bits(row[j]) != math.Float32bits(want[j]) {
				t.Fatalf("trial %d: row[%d] = %v, want %v", trial, j, row[j], want[j])
			}
		}
	}
}

// TestStepRowsSerialAllocatesNothing is the write-back's allocation
// contract: with one worker, StepRows touches no heap.
func TestStepRowsSerialAllocatesNothing(t *testing.T) {
	const rows, dim = 64, 8
	table, state := make([]float32, rows*dim), make([]float32, rows)
	rowAt, stateAt := make([]int, rows), make([]int, rows)
	for i := range rowAt {
		rowAt[i], stateAt[i] = (rows-1-i)*dim, rows-1-i
	}
	grads := tensor.New(rows, dim)
	grads.Fill(0.5)
	opt := NewSparseAdaGrad(0.1)
	opt.Workers = 1
	if a := testing.AllocsPerRun(20, func() { opt.StepRows(table, rowAt, state, stateAt, grads) }); a != 0 {
		t.Fatalf("serial StepRows made %v allocations, want 0", a)
	}
}

func TestApplyClipsGradients(t *testing.T) {
	ps := NewParamSet()
	p := ps.New("w", 1, 2)
	tp := tensor.NewTape()
	nodes := ps.Bind(tp)
	// Force a huge gradient through a scaled identity op.
	x := nodes["w"]
	y := tp.Scale(x, 1e6)
	loss := tp.MeanAll(y)
	tp.Backward(loss)
	gradNorm := nodes["w"].Grad().Norm2()
	if gradNorm < 1e5 {
		t.Fatal("setup broken")
	}
	before := p.Value.Clone()
	Apply(&SGD{LR: 1}, ps, nodes, 1.0)
	var moved float64
	for i := range p.Value.Data {
		d := float64(p.Value.Data[i] - before.Data[i])
		moved += d * d
	}
	if math.Sqrt(moved) > 1.01 {
		t.Fatalf("clipping failed: parameter moved norm %g", math.Sqrt(moved))
	}
}

func TestLinearShapes(t *testing.T) {
	ps := NewParamSet()
	rng := rand.New(rand.NewSource(3))
	l := NewLinear(ps, "fc", 5, 3, true, rng)
	tp := tensor.NewTape()
	nodes := ps.Bind(tp)
	x := tensor.New(7, 5)
	x.RandNormal(rng, 1)
	y := l.Apply(tp, nodes, tp.Constant(x))
	if y.Value.Rows != 7 || y.Value.Cols != 3 {
		t.Fatalf("bad shape %dx%d", y.Value.Rows, y.Value.Cols)
	}
	nb := NewLinear(ps, "nobias", 5, 3, false, rng)
	if nb.B != nil {
		t.Fatal("bias should be nil")
	}
}
