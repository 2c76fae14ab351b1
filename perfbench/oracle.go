package main

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// oracleDistances returns the k smallest point-pair distances between ps
// and qs in ascending order, without using the query engine: qs is hashed
// into square grid cells of side s, and each point of ps probes its 3x3
// cell neighbourhood, which holds every partner closer than s. Once at
// least k pairs lie within (just under) s, the k smallest distances are
// certain; otherwise s doubles and the grid is rebuilt.
func oracleDistances(ps, qs []geom.Point, k int) []float64 {
	if k <= 0 || len(ps) == 0 || len(qs) == 0 {
		return nil
	}
	if total := len(ps) * len(qs); k > total {
		k = total
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, set := range [][]geom.Point{ps, qs} {
		for _, p := range set {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	// Start at half the k-th distance expected for uniform data, so the
	// first grid usually falls just short and one or two doublings finish.
	extent := math.Max(maxX-minX, maxY-minY)
	side := 1.0 // every point coincides: any side finds all pairs at once
	if extent > 0 {
		area := (maxX - minX) * (maxY - minY)
		if area == 0 {
			area = extent * extent
		}
		side = math.Sqrt(float64(k)*area/(math.Pi*float64(len(ps))*float64(len(qs)))) / 2
		if side == 0 {
			side = extent
		}
	}
	for {
		if keys, ok := gridPass(ps, qs, k, side, minX, minY); ok {
			out := make([]float64, len(keys))
			for i, key := range keys {
				out[i] = math.Sqrt(key)
			}
			return out
		}
		side *= 2
	}
}

type cell struct{ x, y int64 }

// gridPass collects the squared distances of all pairs closer than 0.999 s
// (a margin that keeps floating-point cell rounding from losing a pair)
// and reports whether there were at least k of them; if so it returns the
// k smallest, ascending.
func gridPass(ps, qs []geom.Point, k int, side, minX, minY float64) ([]float64, bool) {
	cellOf := func(p geom.Point) cell {
		return cell{int64(math.Floor((p.X - minX) / side)), int64(math.Floor((p.Y - minY) / side))}
	}
	grid := make(map[cell][]int32, len(qs))
	for i, q := range qs {
		c := cellOf(q)
		grid[c] = append(grid[c], int32(i))
	}
	limit := side * 0.999
	limit *= limit
	best := make(maxHeap, 0, k)
	count := 0
	for _, p := range ps {
		c := cellOf(p)
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				for _, i := range grid[cell{c.x + dx, c.y + dy}] {
					ex, ey := p.X-qs[i].X, p.Y-qs[i].Y
					key := ex*ex + ey*ey
					if key > limit {
						continue
					}
					count++
					best.offer(key, k)
				}
			}
		}
	}
	if count < k {
		return nil, false
	}
	sort.Float64s(best)
	return best, true
}

// maxHeap keeps the k smallest keys offered, largest at the root.
type maxHeap []float64

func (h *maxHeap) offer(key float64, k int) {
	s := *h
	if len(s) < k {
		s = append(s, key)
		for i := len(s) - 1; i > 0; {
			parent := (i - 1) / 2
			if s[parent] >= s[i] {
				break
			}
			s[parent], s[i] = s[i], s[parent]
			i = parent
		}
		*h = s
		return
	}
	if key >= s[0] {
		return
	}
	s[0] = key
	for i := 0; ; {
		l, r, big := 2*i+1, 2*i+2, i
		if l < len(s) && s[l] > s[big] {
			big = l
		}
		if r < len(s) && s[r] > s[big] {
			big = r
		}
		if big == i {
			return
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
}
