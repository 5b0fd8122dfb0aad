// Package pw builds the plane-wave DFT data structures the FFTXlib kernel
// operates on: the G-vector sphere implied by a kinetic-energy cutoff, the
// FFT grid that contains it, the stick (pencil) decomposition of the sphere
// and its distribution over MPI ranks, and the task-group chunking used by
// the two-layer communication scheme of Section II of the paper.
//
// Conventions follow Quantum ESPRESSO: a simple cubic cell of parameter
// alat (bohr) has reciprocal-lattice unit tpiba = 2π/alat; a wavefunction
// cutoff ecutw (Ry) keeps G-vectors with |G|² ≤ ecutw/tpiba² (in tpiba²
// units); the FFT grid must represent products of two wavefunctions, so its
// linear size satisfies nr ≥ 2·sqrt(4·ecutw)/tpiba + 1, rounded up to a
// 2^a·3^b·5^c "good size".
package pw

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fft"
)

// Cell is a simple cubic simulation cell.
type Cell struct {
	Alat float64 // lattice parameter in bohr
}

// Tpiba returns the reciprocal-space unit 2π/alat in bohr⁻¹.
func (c Cell) Tpiba() float64 { return 2 * math.Pi / c.Alat }

// Grid is the FFT mesh.
type Grid struct {
	Nx, Ny, Nz int
}

// Size returns the number of mesh points.
func (g Grid) Size() int { return g.Nx * g.Ny * g.Nz }

// GVector is one reciprocal-lattice vector of the sphere, in Miller indices
// (which may be negative) with its squared norm in tpiba² units.
type GVector struct {
	I, J, K int
	G2      float64
}

// Stick is one (I,J) column of the sphere: the set of K indices present.
// Zs lists the K Miller indices in increasing order; Off is the offset of
// the stick's coefficients in the sphere's canonical ordering.
type Stick struct {
	I, J int
	Zs   []int
	Off  int
}

// Len returns the number of G-vectors on the stick.
func (s Stick) Len() int { return len(s.Zs) }

// Sphere is the G-vector sphere of one wavefunction cutoff, with its stick
// decomposition and containing FFT grid. In gamma-point mode (Gamma true)
// only the Hermitian half of the sphere is enumerated: wavefunctions at the
// gamma point are real in real space, so c(-G) = conj(c(G)) and the -G
// coefficients are redundant.
type Sphere struct {
	Cell  Cell
	Ecut  float64 // wavefunction cutoff in Ry
	GCut  float64 // |G|² cutoff in tpiba² units
	Grid  Grid
	Gamma bool
	G     []GVector // canonical order: stick-major, K ascending within stick
	Stick []Stick
}

// gammaHalf reports whether a G-vector belongs to the canonical half of the
// sphere kept in gamma-point mode: i > 0, or i == 0 and j > 0, or
// i == j == 0 and k >= 0.
func gammaHalf(i, j, k int) bool {
	if i != 0 {
		return i > 0
	}
	if j != 0 {
		return j > 0
	}
	return k >= 0
}

// NewSphere enumerates the G-vector sphere for the given cutoff and cell and
// builds the stick decomposition and FFT grid.
func NewSphere(ecut, alat float64) *Sphere {
	return newSphere(ecut, alat, false)
}

// NewSphereGamma enumerates the Hermitian half-sphere of gamma-point mode.
// All sticks except (0,0) carry their full K extent (the half condition cuts
// whole sticks); the (0,0) stick keeps only K >= 0.
func NewSphereGamma(ecut, alat float64) *Sphere {
	return newSphere(ecut, alat, true)
}

func newSphere(ecut, alat float64, gamma bool) *Sphere {
	if ecut <= 0 || alat <= 0 {
		panic(fmt.Sprintf("pw: invalid ecut=%g alat=%g", ecut, alat))
	}
	cell := Cell{Alat: alat}
	tpiba := cell.Tpiba()
	gcut := ecut / (tpiba * tpiba) // in tpiba² units
	gmaxW := math.Sqrt(gcut)
	// Dense-grid extent: the charge density needs 2x the wavefunction
	// G range (ecutrho = 4 ecutw).
	nr := int(2*2*gmaxW) + 1
	n := fft.GoodSize(nr)
	s := &Sphere{
		Cell:  cell,
		Ecut:  ecut,
		GCut:  gcut,
		Grid:  Grid{Nx: n, Ny: n, Nz: n},
		Gamma: gamma,
	}
	// Column (i,j) holds K in [lo, hi]: |G|² is an integer, so
	// i²+j²+k² <= gcut iff k² <= floor(gcut)-i²-j².
	type column struct{ i, j, lo, hi int }
	var cols []column
	ng, lim := 0, int(gmaxW)
	for i := -lim; i <= lim; i++ {
		for j := -lim; j <= lim; j++ {
			rem := int(gcut) - i*i - j*j
			if rem < 0 || (gamma && !gammaHalf(i, j, 0)) {
				continue
			}
			c := column{i, j, 0, int(math.Sqrt(float64(rem)))}
			if !gamma || i != 0 || j != 0 {
				c.lo = -c.hi
			}
			cols = append(cols, c)
			ng += c.hi - c.lo + 1
		}
	}
	// Canonical stick order: by column norm i²+j² ascending, ties by (i,j),
	// the order the loops above visit the columns in.
	norm := func(c column) int { return c.i*c.i + c.j*c.j }
	sort.SliceStable(cols, func(a, b int) bool { return norm(cols[a]) < norm(cols[b]) })
	s.G = make([]GVector, 0, ng)
	s.Stick = make([]Stick, len(cols))
	zs := make([]int, 0, ng)
	for n, c := range cols {
		off := len(zs)
		for k := c.lo; k <= c.hi; k++ {
			zs = append(zs, k)
			s.G = append(s.G, GVector{I: c.i, J: c.j, K: k, G2: float64(c.i*c.i + c.j*c.j + k*k)})
		}
		s.Stick[n] = Stick{I: c.i, J: c.j, Zs: zs[off:len(zs):len(zs)], Off: off}
	}
	return s
}

// NG returns the number of G-vectors in the sphere.
func (s *Sphere) NG() int { return len(s.G) }

// NSticks returns the number of sticks.
func (s *Sphere) NSticks() int { return len(s.Stick) }

// wrap maps a Miller index to a non-negative FFT grid index.
func wrap(m, n int) int {
	m %= n
	if m < 0 {
		m += n
	}
	return m
}

// GridIndex returns the flattened z-fastest FFT grid index
// ((ix·Ny)+iy)·Nz+iz of a G-vector.
func (s *Sphere) GridIndex(g GVector) int {
	ix := wrap(g.I, s.Grid.Nx)
	iy := wrap(g.J, s.Grid.Ny)
	iz := wrap(g.K, s.Grid.Nz)
	return (ix*s.Grid.Ny+iy)*s.Grid.Nz + iz
}

// PlaneIndex returns the row-major (ix·Ny+iy) index of a stick in one XY
// plane.
func (s *Sphere) PlaneIndex(st Stick) int {
	return wrap(st.I, s.Grid.Nx)*s.Grid.Ny + wrap(st.J, s.Grid.Ny)
}

// MinusPlaneIndex returns the plane cell of the stick's Hermitian partner
// column (-I,-J), used by gamma-point mode.
func (s *Sphere) MinusPlaneIndex(st Stick) int {
	return wrap(-st.I, s.Grid.Nx)*s.Grid.Ny + wrap(-st.J, s.Grid.Ny)
}

// IsZeroStick reports whether the stick is the self-conjugate (0,0) column.
func (st Stick) IsZeroStick() bool { return st.I == 0 && st.J == 0 }

// FillBox scatters sphere coefficients into a zeroed z-fastest FFT box.
// The box must have Grid.Size() elements.
func (s *Sphere) FillBox(box, coeffs []complex128) {
	if len(coeffs) != s.NG() {
		panic(fmt.Sprintf("pw: FillBox with %d coeffs, sphere has %d", len(coeffs), s.NG()))
	}
	for i := range box {
		box[i] = 0
	}
	for i, g := range s.G {
		box[s.GridIndex(g)] = coeffs[i]
	}
}

// ExtractBox gathers the sphere coefficients back out of an FFT box.
func (s *Sphere) ExtractBox(coeffs, box []complex128) {
	if len(coeffs) != s.NG() {
		panic(fmt.Sprintf("pw: ExtractBox with %d coeffs, sphere has %d", len(coeffs), s.NG()))
	}
	for i, g := range s.G {
		coeffs[i] = box[s.GridIndex(g)]
	}
}
