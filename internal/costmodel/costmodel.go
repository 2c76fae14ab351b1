// Package costmodel is an analytical model for K-CPQ cost over R*-trees —
// the "analytical study of CPQs" the paper lists as future work (Section
// 6), built in the style of the spatial-join cost models of Theodoridis,
// Stefanakis & Sellis (ICDE 1998) and the NN models of Papadopoulos &
// Manolopoulos (ICDT 1997).
//
// The model predicts the number of node pairs a well-pruned traversal
// (HEAP/STD) processes, assuming uniformly distributed points in two unit
// workspaces whose overlap portion is known:
//
//  1. Tree shape: level l (leaves = 0) holds N_l ≈ N/f^(l+1) square nodes
//     of side s_l ≈ sqrt(f^(l+1)/N), f the effective fanout.
//  2. Final pruning distance: the K-th closest-pair distance d_K follows
//     from the expected number of cross pairs within distance r,
//     E[pairs ≤ r] ≈ N_A·N_B·π·r²·ov (ov the workspace overlap), giving
//     d_K ≈ sqrt(K / (π·N_A·N_B·ov)).
//  3. Qualifying pairs per level: a node pair is processed when its
//     MINMINDIST is at most d_K, i.e. when the two node centers fall
//     within (s_A,l + s_B,l)/2 + d_K of each other per axis. With centers
//     uniform in their (possibly shifted) workspaces this probability
//     factors per axis and has a closed form.
//  4. Cost: each processed pair reads two pages, so
//     accesses ≈ 2·Σ_l N_A,l·N_B,l·P_l, floored by the two root paths.
//
// For disjoint or barely overlapping workspaces the closest pair hugs the
// workspace boundary and the uniform-pair argument in step 2 degrades;
// Predict clamps the overlap at a small epsilon and the validation
// experiment reports accuracy across the overlap axis honestly.
package costmodel

import (
	"fmt"
	"math"
)

// Params describes one K-CPQ workload for prediction.
type Params struct {
	// NA, NB are the two cardinalities.
	NA, NB int
	// Overlap is the portion of workspace overlap in [0, 1].
	Overlap float64
	// K is the number of closest pairs requested.
	K int
	// Fanout is the effective (average) node fan-out; 0 means 0.7 * M of
	// the paper's M = 21, i.e. ~14.7.
	Fanout float64
}

func (p Params) fanout() float64 {
	if p.Fanout > 0 {
		return p.Fanout
	}
	return 0.7 * 21
}

func (p Params) validate() error {
	if p.NA <= 0 || p.NB <= 0 {
		return fmt.Errorf("costmodel: cardinalities must be positive (%d, %d)", p.NA, p.NB)
	}
	if p.Overlap < 0 || p.Overlap > 1 {
		return fmt.Errorf("costmodel: overlap %g out of [0, 1]", p.Overlap)
	}
	if p.K <= 0 {
		return fmt.Errorf("costmodel: K must be positive, got %d", p.K)
	}
	return nil
}

// Level describes one level of a modeled R*-tree.
type Level struct {
	// Count is the expected number of nodes.
	Count float64
	// Side is the expected side length of a node MBR (workspace side = 1).
	Side float64
}

// TreeShape models the level structure of an R*-tree over n uniform points
// with the given effective fanout: level 0 is the leaf level; the last
// level is the root.
func TreeShape(n int, fanout float64) []Level {
	if n <= 0 {
		return nil
	}
	var levels []Level
	count := float64(n)
	for {
		count /= fanout
		if count < 1 {
			count = 1
		}
		// A level with count nodes tiles the unit workspace, so each node
		// covers area 1/count.
		levels = append(levels, Level{
			Count: math.Ceil(count),
			Side:  math.Min(1, math.Sqrt(1/count)),
		})
		if count == 1 {
			return levels
		}
	}
}

// ExpectedCPDistance estimates the K-th smallest cross-pair distance for
// uniform data in unit workspaces with the given overlap portion.
func ExpectedCPDistance(nA, nB int, overlap float64, k int) float64 {
	ov := math.Max(overlap, 1e-3) // boundary regime clamp, see package doc
	return math.Sqrt(float64(k) / (math.Pi * float64(nA) * float64(nB) * ov))
}

// axisProb returns P(|x - y| <= c) for x uniform in [0, 1] and y uniform
// in [d, d+1]: the per-axis probability that two node centers are within
// distance c, when the second workspace is shifted by d along the axis.
// Computed as the area of a band of width 2c around the diagonal of a unit
// square shifted by d.
func axisProb(d, c float64) float64 {
	if c < 0 {
		return 0
	}
	// P = ∫_0^1 len([x-c, x+c] ∩ [d, d+1]) dx; integrate exactly using the
	// piecewise-linear structure via fine trapezoids (the integrand is
	// piecewise linear, so a modest grid is exact up to float error).
	const steps = 4096
	sum := 0.0
	for i := 0; i <= steps; i++ {
		x := float64(i) / steps
		lo := math.Max(x-c, d)
		hi := math.Min(x+c, d+1)
		v := math.Max(0, hi-lo)
		if i == 0 || i == steps {
			v /= 2
		}
		sum += v
	}
	return math.Min(1, sum/steps)
}

// Prediction reports the model's outputs.
type Prediction struct {
	// Accesses is the predicted number of page reads (B = 0).
	Accesses float64
	// NodePairs is the predicted number of processed node pairs.
	NodePairs float64
	// CPDistance is the estimated K-th closest-pair distance.
	CPDistance float64
	// LevelPairs breaks NodePairs down per level (leaf level first).
	LevelPairs []float64
}

// Predict estimates the cost of a K-CPQ executed by a well-pruned
// traversal (HEAP or STD) at buffer size 0.
func Predict(p Params) (Prediction, error) {
	if err := p.validate(); err != nil {
		return Prediction{}, err
	}
	f := p.fanout()
	la := TreeShape(p.NA, f)
	lb := TreeShape(p.NB, f)
	d := ExpectedCPDistance(p.NA, p.NB, p.Overlap, p.K)
	shift := 1 - p.Overlap

	// Align levels from the root downwards (fix-at-root): while one tree
	// is taller, its extra top levels pair with the other tree's root.
	ha, hb := len(la), len(lb)
	h := ha
	if hb > h {
		h = hb
	}
	pred := Prediction{CPDistance: d}
	for l := 0; l < h; l++ {
		ia, ib := l, l
		if ia >= ha {
			ia = ha - 1
		}
		if ib >= hb {
			ib = hb - 1
		}
		A, B := la[ia], lb[ib]
		// Two axis-aligned squares of sides sA, sB are within distance d
		// per axis when their centers differ by at most (sA+sB)/2 + d.
		c := (A.Side+B.Side)/2 + d
		prob := axisProb(shift, c) * axisProb(0, c)
		pairs := A.Count * B.Count * prob
		if pairs < 1 {
			pairs = 1 // the traversal always touches at least the two roots
		}
		if max := A.Count * B.Count; pairs > max {
			pairs = max
		}
		pred.LevelPairs = append(pred.LevelPairs, pairs)
		pred.NodePairs += pairs
	}
	pred.Accesses = 2 * pred.NodePairs
	return pred, nil
}
