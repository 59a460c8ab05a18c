// Value modes. The solver's hot vectors (x, the per-round working values,
// the threshold tables) are generic over Val — float64 (the default) or the
// opt-in float32 mode that halves kernel memory traffic on bandwidth-bound
// instances. The float64 instantiation performs the exact operations of the
// pre-generic code (every float64(v) conversion is the identity), so f64
// results stay bit-identical; the float32 mode keeps every accumulation
// that feeds a threshold or feasibility comparison in float64 and rounds
// only the stored per-edge values, so the relative objective error stays
// within the budget documented in README ("Value modes").
package frac

import (
	"fmt"
	"math"

	"repro/internal/scratch"
)

// Val is the value-type constraint for the generic kernels and drivers.
type Val interface{ ~float32 | ~float64 }

// ValueMode selects the value type the drivers instantiate.
type ValueMode uint8

const (
	// ValuesF64 is the default full-precision mode.
	ValuesF64 ValueMode = iota
	// ValuesF32 stores the hot per-edge vectors as float32. Feasibility
	// comparisons still accumulate in float64; per-edge values are clamped
	// so x_e never exceeds r_e exactly.
	ValuesF32
)

func (vm ValueMode) String() string {
	if vm == ValuesF32 {
		return "f32"
	}
	return "f64"
}

// ParseValueMode maps the wire spelling ("", "f64", "f32") to a ValueMode.
func ParseValueMode(s string) (ValueMode, error) {
	switch s {
	case "", "f64":
		return ValuesF64, nil
	case "f32":
		return ValuesF32, nil
	}
	return ValuesF64, fmt.Errorf("frac: unknown value mode %q (want f64 or f32)", s)
}

// View is a value-mode view of a Problem: the same instance with the edge
// capacities mirrored in V precision, which is what the fused kernels read
// in their hot loops. For V = float64 the mirror aliases Problem.R (no
// copy); for V = float32 it is R rounded DOWN per entry, so any x_e ≤ r32_e
// also satisfies the original constraint x_e ≤ r_e exactly.
type View[V Val] struct {
	p *Problem
	r []V
}

// NewView returns a value-mode view of p. For V = float64 the view aliases
// p.R; otherwise it heap-allocates the capacity mirror. Drivers use
// viewScratch instead.
func NewView[V Val](p *Problem) View[V] {
	if r, ok := any(p.R).([]V); ok {
		return View[V]{p: p, r: r}
	}
	r := make([]V, len(p.R))
	floorInto(r, p.R)
	return View[V]{p: p, r: r}
}

// Problem returns the viewed instance.
func (w View[V]) Problem() *Problem { return w.p }

// viewScratch is NewView drawing the f32 capacity mirror from ar; the view
// must not outlive ar's release scope.
func viewScratch[V Val](p *Problem, ar *scratch.Arena) View[V] {
	if r, ok := any(p.R).([]V); ok {
		return View[V]{p: p, r: r}
	}
	r := grabV[V](ar, len(p.R))
	floorInto(r, p.R)
	return View[V]{p: p, r: r}
}

// grabV borrows n uninitialized V entries from ar's matching typed slab.
func grabV[V Val](ar *scratch.Arena, n int) []V {
	var z V
	if _, ok := any(z).(float32); ok {
		return any(ar.F32Raw(n)).([]V)
	}
	return any(ar.F64Raw(n)).([]V)
}

// floorInto writes the largest V value ≤ src[i] into dst[i]. For
// V = float64 it is a copy; for V = float32 the round-to-nearest conversion
// is stepped down one ulp whenever it rounded up, so capacity mirrors never
// exceed the true capacities.
func floorInto[V Val](dst []V, src []float64) {
	for i, x := range src {
		v := V(x)
		if float64(v) > x {
			v = nextDownV(v)
		}
		dst[i] = v
	}
}

func nextDownV[V Val](v V) V {
	switch t := any(&v).(type) {
	case *float32:
		*t = math.Nextafter32(*t, float32(math.Inf(-1)))
	case *float64:
		*t = math.Nextafter(*t, math.Inf(-1))
	}
	return v
}

// toF64 converts a value vector to float64 for the result contract. The
// float64 instantiation returns x itself (no copy), which is what keeps the
// f64 drivers allocation- and bit-identical to the pre-generic code.
func toF64[V Val](x []V) []float64 {
	if f, ok := any(x).([]float64); ok {
		return f
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = float64(v)
	}
	return out
}

// accumulate adds the subproblem solution xPrime (indexed by orig) into the
// running solution x. The float64 path is the pre-generic `x[e] += xp[i]`
// verbatim. The float32 path sums in float64 and clamps the rounded store
// to the V-precision capacity: rounding to nearest may step over r_e where
// plain float64 accumulation could not, and feasibility of the accumulated
// solution must not depend on a tolerance.
func accumulate[V Val](x []V, rv []V, xPrime []V, orig []int32) {
	if x64, ok := any(x).([]float64); ok {
		xp := any(xPrime).([]float64)
		for i, e := range orig {
			x64[e] += xp[i]
		}
		return
	}
	for i, e := range orig {
		s := float64(x[e]) + float64(xPrime[i])
		v := V(s)
		if float64(v) > float64(rv[e]) {
			v = rv[e]
		}
		x[e] = v
	}
}
