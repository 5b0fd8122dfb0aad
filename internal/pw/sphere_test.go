package pw

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// bruteSphere is the reference enumeration: scan the whole Miller-index
// cube, collect each (i,j) column's K indices in a map, then order the
// sticks canonically. newSphere must build exactly the same G list and
// sticks from the closed-form K range of each column.
func bruteSphere(gcut float64, lim int, gamma bool) ([]GVector, []Stick) {
	type ij struct{ i, j int }
	sticks := map[ij][]int{}
	for i := -lim; i <= lim; i++ {
		for j := -lim; j <= lim; j++ {
			for k := -lim; k <= lim; k++ {
				g2 := float64(i*i + j*j + k*k)
				if g2 <= gcut && (!gamma || gammaHalf(i, j, k)) {
					sticks[ij{i, j}] = append(sticks[ij{i, j}], k)
				}
			}
		}
	}
	keys := make([]ij, 0, len(sticks))
	for k := range sticks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		na, nb := keys[a].i*keys[a].i+keys[a].j*keys[a].j, keys[b].i*keys[b].i+keys[b].j*keys[b].j
		if na != nb {
			return na < nb
		}
		if keys[a].i != keys[b].i {
			return keys[a].i < keys[b].i
		}
		return keys[a].j < keys[b].j
	})
	var gs []GVector
	var sts []Stick
	off := 0
	for _, key := range keys {
		zs := sticks[key]
		sort.Ints(zs)
		sts = append(sts, Stick{I: key.i, J: key.j, Zs: zs, Off: off})
		for _, k := range zs {
			gs = append(gs, GVector{I: key.i, J: key.j, K: k, G2: float64(key.i*key.i + key.j*key.j + k*k)})
		}
		off += len(zs)
	}
	return gs, sts
}

func TestSphereMatchesBruteForce(t *testing.T) {
	for _, ecut := range []float64{0.5, 1, 2.5, 10, 12.34, 25, 40, 80} {
		// At alat 2π the cutoff in tpiba² units equals ecut, so integer
		// ecuts put lattice points exactly on the sphere.
		for _, alat := range []float64{5, 2 * math.Pi, 7.3, 10, 13.7, 20} {
			for _, gamma := range []bool{false, true} {
				s := newSphere(ecut, alat, gamma)
				// Scan one index beyond the cutoff radius on every axis.
				lim := 2
				for float64(lim*lim) <= s.GCut {
					lim++
				}
				g, st := bruteSphere(s.GCut, lim, gamma)
				if !reflect.DeepEqual(s.G, g) {
					t.Fatalf("ecut %g alat %g gamma %v: G differs (%d vs %d vectors)", ecut, alat, gamma, len(s.G), len(g))
				}
				if !reflect.DeepEqual(s.Stick, st) {
					t.Fatalf("ecut %g alat %g gamma %v: sticks differ (%d vs %d)", ecut, alat, gamma, len(s.Stick), len(st))
				}
			}
		}
	}
}
