// Package nn provides trainable parameters, layers, and optimizers on top
// of the tensor package. The dense parameters of a GNN (layer weights,
// decoder relation embeddings) live here; the large learnable node
// base-representation tables live in the storage layer and are updated with
// the sparse AdaGrad in this package.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/tensor"
)

// Param is a named trainable tensor together with its optimizer state.
type Param struct {
	Name  string
	Value *tensor.Tensor

	// Adam / AdaGrad state, allocated lazily by the optimizer.
	m, v *tensor.Tensor
	step int
}

// ParamSet holds all dense trainable parameters of a model.
type ParamSet struct {
	params []*Param
	byName map[string]*Param
}

// NewParamSet returns an empty parameter set.
func NewParamSet() *ParamSet {
	return &ParamSet{byName: make(map[string]*Param)}
}

// New registers and returns a new parameter with the given shape. Names
// must be unique within the set.
func (ps *ParamSet) New(name string, rows, cols int) *Param {
	if _, dup := ps.byName[name]; dup {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	p := &Param{Name: name, Value: tensor.New(rows, cols)}
	ps.params = append(ps.params, p)
	ps.byName[name] = p
	return p
}

// NewGlorot registers a Glorot-uniform-initialized parameter.
func (ps *ParamSet) NewGlorot(name string, rows, cols int, rng *rand.Rand) *Param {
	p := ps.New(name, rows, cols)
	p.Value.GlorotUniform(rng)
	return p
}

// Get returns the parameter registered under name, or nil.
func (ps *ParamSet) Get(name string) *Param { return ps.byName[name] }

// All returns the parameters in registration order.
func (ps *ParamSet) All() []*Param { return ps.params }

// NumParams returns the total scalar parameter count.
func (ps *ParamSet) NumParams() int {
	n := 0
	for _, p := range ps.params {
		n += len(p.Value.Data)
	}
	return n
}

// Bind registers every parameter on the tape as a gradient-tracked leaf and
// returns the nodes keyed by parameter name. Call once per mini batch.
func (ps *ParamSet) Bind(tp *tensor.Tape) map[string]*tensor.Node {
	return ps.BindInto(tp, nil)
}

// BindInto is Bind with a caller-owned destination map: trainers reuse one
// map across batches so steady-state binding allocates nothing. A nil dst
// allocates a fresh map. On an arena-backed tape the bound nodes' gradients
// are arena-owned — run Apply (and any write-back) before the arena resets.
func (ps *ParamSet) BindInto(tp *tensor.Tape, dst map[string]*tensor.Node) map[string]*tensor.Node {
	if dst == nil {
		dst = make(map[string]*tensor.Node, len(ps.params))
	} else {
		clear(dst)
	}
	for _, p := range ps.params {
		dst[p.Name] = tp.Leaf(p.Value, true)
	}
	return dst
}

// Optimizer applies gradients to dense parameters.
type Optimizer interface {
	// Step applies the gradient g to parameter p. g may be nil (no-op).
	Step(p *Param, g *tensor.Tensor)
}

// Apply runs one optimizer step for every parameter using the gradients
// accumulated on the given bound nodes, then clears nothing (tapes are
// discarded by the caller). Gradients are clipped to maxNorm per parameter
// when maxNorm > 0.
func Apply(opt Optimizer, ps *ParamSet, nodes map[string]*tensor.Node, maxNorm float64) {
	for _, p := range ps.params {
		n := nodes[p.Name]
		if n == nil || n.Grad() == nil {
			continue
		}
		g := n.Grad()
		if maxNorm > 0 {
			if nrm := g.Norm2(); nrm > maxNorm {
				g.ScaleInPlace(float32(maxNorm / nrm))
			}
		}
		opt.Step(p, g)
	}
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float32
	Momentum float32
}

// Step implements Optimizer.
func (o *SGD) Step(p *Param, g *tensor.Tensor) {
	if g == nil {
		return
	}
	if o.Momentum > 0 {
		if p.m == nil {
			p.m = tensor.New(p.Value.Rows, p.Value.Cols)
		}
		for i, gv := range g.Data {
			p.m.Data[i] = o.Momentum*p.m.Data[i] + gv
			p.Value.Data[i] -= o.LR * p.m.Data[i]
		}
		return
	}
	for i, gv := range g.Data {
		p.Value.Data[i] -= o.LR * gv
	}
}

// Adam is the Adam optimizer (Kingma & Ba) used for dense GNN parameters,
// matching the paper's training setup for GNN weights.
type Adam struct {
	LR    float32
	Beta1 float32
	Beta2 float32
	Eps   float32
}

// NewAdam returns Adam with the conventional defaults.
func NewAdam(lr float32) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (o *Adam) Step(p *Param, g *tensor.Tensor) {
	if g == nil {
		return
	}
	if p.m == nil {
		p.m = tensor.New(p.Value.Rows, p.Value.Cols)
		p.v = tensor.New(p.Value.Rows, p.Value.Cols)
	}
	p.step++
	b1c := 1 - float32(math.Pow(float64(o.Beta1), float64(p.step)))
	b2c := 1 - float32(math.Pow(float64(o.Beta2), float64(p.step)))
	for i, gv := range g.Data {
		p.m.Data[i] = o.Beta1*p.m.Data[i] + (1-o.Beta1)*gv
		p.v.Data[i] = o.Beta2*p.v.Data[i] + (1-o.Beta2)*gv*gv
		mHat := p.m.Data[i] / b1c
		vHat := p.v.Data[i] / b2c
		p.Value.Data[i] -= o.LR * mHat / (float32(math.Sqrt(float64(vHat))) + o.Eps)
	}
}

// AdaGrad is the dense AdaGrad optimizer.
type AdaGrad struct {
	LR  float32
	Eps float32
}

// NewAdaGrad returns AdaGrad with eps 1e-10, the Marius default.
func NewAdaGrad(lr float32) *AdaGrad { return &AdaGrad{LR: lr, Eps: 1e-10} }

// Step implements Optimizer.
func (o *AdaGrad) Step(p *Param, g *tensor.Tensor) {
	if g == nil {
		return
	}
	if p.v == nil {
		p.v = tensor.New(p.Value.Rows, p.Value.Cols)
	}
	for i, gv := range g.Data {
		p.v.Data[i] += gv * gv
		p.Value.Data[i] -= o.LR * gv / (float32(math.Sqrt(float64(p.v.Data[i]))) + o.Eps)
	}
}

// SparseAdaGrad updates rows of a large embedding table given per-row
// gradients, maintaining one accumulated squared-gradient scalar per row
// (the "per-embedding" variant used by Marius for base representations).
// The state slice must have one entry per table row and persists across
// batches; for disk-based training it is stored alongside the embeddings.
type SparseAdaGrad struct {
	LR  float32
	Eps float32
	// Workers caps the goroutines StepRows steps rows on; at most 1 keeps
	// every row on the caller's. A training session sets its worker count.
	Workers int
}

// NewSparseAdaGrad returns a sparse AdaGrad with eps 1e-10.
func NewSparseAdaGrad(lr float32) *SparseAdaGrad { return &SparseAdaGrad{LR: lr, Eps: 1e-10} }

// StepRow updates one embedding row in place given its gradient and the
// row's accumulated state, returning the new state. The update is one axpy
// of the gradient by −scale: row[i] + (−scale)·g[i] is row[i] − scale·g[i]
// bit for bit.
func (o *SparseAdaGrad) StepRow(row, grad []float32, state float32) float32 {
	var sq float64
	for _, gv := range grad {
		sq += float64(gv) * float64(gv)
	}
	state += float32(sq / float64(len(grad)))
	scale := o.LR / (float32(math.Sqrt(float64(state))) + o.Eps)
	tensor.Axpy(row, grad, -scale)
	return state
}

// stepRowsWork is the least rows × dim for which StepRows fans out.
const stepRowsWork = 1 << 14

// StepRows runs StepRow on the rows a store resolved for one update: row i
// is table[rowAt[i]:][:grads.Cols], with accumulator state[stateAt[i]] and
// gradient grads.Row(i). With Workers > 1 and enough work, disjoint ranges
// of i step concurrently, so the rows must then be distinct (DENSE's node
// IDs are); a row's arithmetic is StepRow's either way, so the result does
// not depend on Workers. The serial path allocates nothing.
func (o *SparseAdaGrad) StepRows(table []float32, rowAt []int, state []float32, stateAt []int, grads *tensor.Tensor) {
	n := len(rowAt)
	w := min(o.Workers, n)
	if w <= 1 || n*grads.Cols < stepRowsWork {
		o.stepRange(table, rowAt, state, stateAt, grads, 0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			o.stepRange(table, rowAt, state, stateAt, grads, lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}

func (o *SparseAdaGrad) stepRange(table []float32, rowAt []int, state []float32, stateAt []int, grads *tensor.Tensor, lo, hi int) {
	d := grads.Cols
	for i := lo; i < hi; i++ {
		st := stateAt[i]
		state[st] = o.StepRow(table[rowAt[i]:][:d], grads.Row(i), state[st])
	}
}
