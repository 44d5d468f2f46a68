package nn

import (
	"fmt"
	"math/rand"

	"apf/internal/tensor"
)

// Dense is a fully connected layer: y = x·W + b with x of shape [N, in].
type Dense struct {
	w, b *Param

	lastInput *tensor.Tensor
	// dw is Backward's scratch for xᵀ·dy, reused across steps.
	dw *tensor.Tensor
}

var _ Layer = (*Dense)(nil)

// NewDense constructs a dense layer with Xavier-uniform weights. name
// prefixes the parameter names ("<name>.w", "<name>.b").
func NewDense(rng *rand.Rand, name string, in, out int) *Dense {
	d := &Dense{
		w: newParam(name+".w", in, out),
		b: newParam(name+".b", out),
	}
	xavierUniform(rng, d.w.Data, in, out)
	return d
}

// Forward computes x·W + b for x of shape [N, in].
func (d *Dense) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Shape[1] != d.w.Data.Shape[0] {
		panic(fmt.Sprintf("nn: Dense expects [N, %d] input, got %v", d.w.Data.Shape[0], x.Shape))
	}
	d.lastInput = x
	out := tensor.MatMul(x, d.w.Data)
	n, m := out.Shape[0], out.Shape[1]
	for i := 0; i < n; i++ {
		row := out.Data[i*m : (i+1)*m]
		for j := range row {
			row[j] += d.b.Data.Data[j]
		}
	}
	return out
}

// Backward accumulates dW = xᵀ·dy and db = Σ_rows dy, and returns dx = dy·Wᵀ.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := d.lastInput
	if x == nil {
		panic("nn: Dense.Backward called before Forward")
	}
	d.dw = tensor.MatMulTransAInto(d.dw, x, grad)
	d.w.Grad.AddAssign(d.dw)
	n, m := grad.Shape[0], grad.Shape[1]
	for i := 0; i < n; i++ {
		row := grad.Data[i*m : (i+1)*m]
		for j := range row {
			d.b.Grad.Data[j] += row[j]
		}
	}
	return tensor.MatMulTransB(grad, d.w.Data)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }
