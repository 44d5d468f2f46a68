package tensor

import (
	"fmt"
	"math"
)

// checkSameShape panics if the two tensors differ in shape; op names the
// caller for the panic message.
func checkSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// Zero sets every element of t to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// CopyFrom copies o's elements into t. Shapes must match.
func (t *Tensor) CopyFrom(o *Tensor) {
	checkSameShape("CopyFrom", t, o)
	copy(t.Data, o.Data)
}

// AddAssign adds o elementwise into t.
func (t *Tensor) AddAssign(o *Tensor) {
	checkSameShape("AddAssign", t, o)
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// SubAssign subtracts o elementwise from t.
func (t *Tensor) SubAssign(o *Tensor) {
	checkSameShape("SubAssign", t, o)
	for i, v := range o.Data {
		t.Data[i] -= v
	}
}

// MulAssign multiplies t elementwise by o.
func (t *Tensor) MulAssign(o *Tensor) {
	checkSameShape("MulAssign", t, o)
	for i, v := range o.Data {
		t.Data[i] *= v
	}
}

// Scale multiplies every element of t by alpha.
func (t *Tensor) Scale(alpha float64) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// Axpy performs t += alpha*x elementwise.
func (t *Tensor) Axpy(alpha float64, x *Tensor) {
	checkSameShape("Axpy", t, x)
	for i, v := range x.Data {
		t.Data[i] += alpha * v
	}
}

// Add returns a new tensor holding a+b.
func Add(a, b *Tensor) *Tensor {
	checkSameShape("Add", a, b)
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns a new tensor holding a-b.
func Sub(a, b *Tensor) *Tensor {
	checkSameShape("Sub", a, b)
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// MulElem returns the elementwise product a*b.
func MulElem(a, b *Tensor) *Tensor {
	checkSameShape("MulElem", a, b)
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements, or 0 for an empty
// tensor.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Norm2 returns the Euclidean (L2) norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of a and b viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	checkSameShape("Dot", a, b)
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

// MatMul multiplies two rank-2 tensors: (m×k)·(k×n) → (m×n).
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v and %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v vs %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	// ikj loop order keeps the inner loop contiguous over both b and out.
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b.Data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulTransA computes aᵀ·b for rank-2 a (k×m) and b (k×n) → (m×n).
func MatMulTransA(a, b *Tensor) *Tensor { return MatMulTransAInto(nil, a, b) }

// MatMulTransAInto computes aᵀ·b like MatMulTransA, into out when out
// already has the m×n shape (its contents are overwritten) and into a new
// tensor otherwise, and returns the result. The summation order is
// MatMulTransA's, so the bits are too.
func MatMulTransAInto(out, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransA requires rank-2 operands, got %v and %v", a.Shape, b.Shape))
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimensions differ: %v vs %v", a.Shape, b.Shape))
	}
	if out == nil || out.Rank() != 2 || out.Shape[0] != m || out.Shape[1] != n {
		out = New(m, n)
	} else {
		out.Zero()
	}
	for kk := 0; kk < k; kk++ {
		arow := a.Data[kk*m : (kk+1)*m]
		brow := b.Data[kk*n : (kk+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulTransB computes a·bᵀ for rank-2 a (m×k) and b (n×k) → (m×n).
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransB requires rank-2 operands, got %v and %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimensions differ: %v vs %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			s := 0.0
			for kk, av := range arow {
				s += av * brow[kk]
			}
			orow[j] = s
		}
	}
	return out
}

// Transpose2D returns the transpose of a rank-2 tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D requires rank-2 operand, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

// ArgMaxRows returns, for a rank-2 tensor, the column index of the maximum
// element of each row. Ties resolve to the lowest index.
func ArgMaxRows(a *Tensor) []int {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRows requires rank-2 operand, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	out := make([]int, m)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		best := 0
		for j := 1; j < n; j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}
