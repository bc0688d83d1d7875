// Package minife implements the miniFE finite-element proxy application:
// assemble a sparse linear system from hexahedral elements on a 3-D
// structured mesh, then solve it with an un-preconditioned conjugate-
// gradient iteration whose device side is the paper's three kernels —
// SpMV (CSR-Adaptive on OpenCL/C++ AMP, scalar CSR under OpenACC), axpy
// (waxpby) and dot — making it the memory-bandwidth-bound member of the
// suite (Table I: 39% LLC miss rate, 0.88 IPC).
package minife

import (
	"fmt"
	"math"
)

// Config sizes a run: `-nx -ny -nz` elements per dimension, as in the
// paper's `./miniFE -nx 100 -ny 100 -nz 100`.
type Config struct {
	Nx, Ny, Nz int
	// MaxIters bounds the CG iteration (miniFE default 200).
	MaxIters int
	// Tol is the relative residual target.
	Tol float64
	// FunctionalIters: leading CG iterations that execute real math;
	// later iterations replay measured kernel costs (timing-only, for
	// paper-scale runs). Zero = all functional.
	FunctionalIters int
}

// Validate reports unusable configurations.
func (c Config) Validate() error {
	if c.Nx < 2 || c.Ny < 2 || c.Nz < 2 {
		return fmt.Errorf("minife: mesh %dx%dx%d must be ≥2 per dim", c.Nx, c.Ny, c.Nz)
	}
	if c.MaxIters < 1 {
		return fmt.Errorf("minife: MaxIters=%d must be ≥1", c.MaxIters)
	}
	if c.Tol < 0 {
		return fmt.Errorf("minife: Tol=%g must be ≥0", c.Tol)
	}
	if c.FunctionalIters < 0 {
		return fmt.Errorf("minife: FunctionalIters=%d must be ≥0", c.FunctionalIters)
	}
	return nil
}

func (c Config) functionalIters() int {
	if c.FunctionalIters == 0 || c.FunctionalIters > c.MaxIters {
		return c.MaxIters
	}
	return c.FunctionalIters
}

// NumRows returns the unknown count ((nx+1)(ny+1)(nz+1) nodes).
func (c Config) NumRows() int { return (c.Nx + 1) * (c.Ny + 1) * (c.Nz + 1) }

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	NumRows int
	RowPtr  []int32
	Cols    []int32
	Vals    []float64
}

// NNZ returns the stored-nonzero count.
func (a *CSR) NNZ() int { return len(a.Cols) }

// MulRow computes (A·x)[row].
func (a *CSR) MulRow(row int, x []float64) float64 {
	sum := 0.0
	for i := a.RowPtr[row]; i < a.RowPtr[row+1]; i++ {
		sum += a.Vals[i] * x[a.Cols[i]]
	}
	return sum
}

// hexStiffness is the 8×8 element stiffness matrix of the Laplace
// operator on a unit cube (trilinear elements, exact integration). The
// analytic entries depend only on the Manhattan distance between local
// nodes: diagonal 1/3, face-adjacent 0, edge-adjacent -1/12, and the
// body diagonal -1/12... using the standard result:
//
//	K[i][j] = (1/36h)·k(d) with k(0)=12, k(1)=0, k(2)=-3, k(3)=-3  (h=1)
//
// scaled so that row sums are zero (pure Neumann element); the assembled
// system adds a mass shift to stay positive definite.
var hexStiffness = buildHexStiffness()

func buildHexStiffness() (k [8][8]float64) {
	dx := [8]int{0, 1, 1, 0, 0, 1, 1, 0}
	dy := [8]int{0, 0, 1, 1, 0, 0, 1, 1}
	dz := [8]int{0, 0, 0, 0, 1, 1, 1, 1}
	// Exact trilinear Laplace stiffness on the unit cube: with σ =
	// number of differing coordinates between local nodes i and j,
	// K = (1/36)·{σ0: 12, σ1: 0, σ2: -3, σ3: -3} … this has zero row
	// sums and is symmetric.
	w := [4]float64{12, 0, -3, -3}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			d := 0
			if dx[i] != dx[j] {
				d++
			}
			if dy[i] != dy[j] {
				d++
			}
			if dz[i] != dz[j] {
				d++
			}
			k[i][j] = w[d] / 36
		}
	}
	return k
}

// massShift keeps the assembled operator positive definite (a Helmholtz
// term, standing in for miniFE's Dirichlet boundary rows).
const massShift = 0.1

// Assemble builds the CSR system A·x = b by summing element stiffness
// contributions (the "generated and assembled into a sparse matrix"
// phase of miniFE) plus a mass shift on the diagonal. b is the unit
// source vector.
//
// Two nodes couple exactly when they share an element, i.e. when each
// lies in the other's 27-point neighbourhood clipped to the mesh, so the
// sparsity pattern is known before any value: RowPtr and Cols are filled
// first, columns in ascending node order. The element sweep then adds
// into precomputed slots in element order, and the mass shift comes
// last, so every entry sums its terms in the same order as a per-row
// accumulator would.
func Assemble(cfg Config) (*CSR, []float64) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	np := [3]int{cfg.Nx + 1, cfg.Ny + 1, cfg.Nz + 1}
	rows := cfg.NumRows()
	node := func(i, j, k int) int32 { return int32((k*np[1]+j)*np[0] + i) }
	// nbr returns the first node and the width of coordinate c's clipped
	// neighbourhood along axis d.
	nbr := func(c, d int) (lo, w int) {
		lo, hi := max(c-1, 0), min(c+1, np[d]-1)
		return lo, hi - lo + 1
	}

	// A neighbourhood is a product of per-axis ranges whose widths along
	// an axis of n nodes sum to 3n-2, so the nonzero count factors too.
	nnz := (3*np[0] - 2) * (3*np[1] - 2) * (3*np[2] - 2)
	a := &CSR{NumRows: rows, RowPtr: make([]int32, rows+1), Cols: make([]int32, 0, nnz), Vals: make([]float64, nnz)}
	for k := 0; k < np[2]; k++ {
		lz, wz := nbr(k, 2)
		for j := 0; j < np[1]; j++ {
			ly, wy := nbr(j, 1)
			for i := 0; i < np[0]; i++ {
				lx, wx := nbr(i, 0)
				for z := lz; z < lz+wz; z++ {
					for y := ly; y < ly+wy; y++ {
						for x := lx; x < lx+wx; x++ {
							a.Cols = append(a.Cols, node(x, y, z))
						}
					}
				}
				a.RowPtr[node(i, j, k)+1] = int32(len(a.Cols))
			}
		}
	}

	// slot returns the Vals index of the entry coupling node (i,j,k) to
	// its neighbour (x,y,z).
	slot := func(i, j, k, x, y, z int) int32 {
		lx, wx := nbr(i, 0)
		ly, wy := nbr(j, 1)
		lz, _ := nbr(k, 2)
		return a.RowPtr[node(i, j, k)] + int32(((z-lz)*wy+(y-ly))*wx+(x-lx))
	}
	dx := [8]int{0, 1, 1, 0, 0, 1, 1, 0}
	dy := [8]int{0, 0, 1, 1, 0, 0, 1, 1}
	dz := [8]int{0, 0, 0, 0, 1, 1, 1, 1}
	for ez := 0; ez < cfg.Nz; ez++ {
		for ey := 0; ey < cfg.Ny; ey++ {
			for ex := 0; ex < cfg.Nx; ex++ {
				for i := 0; i < 8; i++ {
					xi, yi, zi := ex+dx[i], ey+dy[i], ez+dz[i]
					for j := 0; j < 8; j++ {
						a.Vals[slot(xi, yi, zi, ex+dx[j], ey+dy[j], ez+dz[j])] += hexStiffness[i][j]
					}
				}
			}
		}
	}
	for k := 0; k < np[2]; k++ {
		for j := 0; j < np[1]; j++ {
			for i := 0; i < np[0]; i++ {
				a.Vals[slot(i, j, k, i, j, k)] += massShift
			}
		}
	}

	// Spatially varying source (a constant b would be an eigenvector of
	// the shifted operator and CG would converge in one step).
	b := make([]float64, rows)
	for i := range b {
		b[i] = 1 + 0.5*math.Sin(float64(i)*0.37)
	}
	return a, b
}

// Residual returns ‖b − A·x‖₂.
func Residual(a *CSR, x, b []float64) float64 {
	sum := 0.0
	for r := 0; r < a.NumRows; r++ {
		d := b[r] - a.MulRow(r, x)
		sum += d * d
	}
	return math.Sqrt(sum)
}
