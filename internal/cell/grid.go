// Package cell implements the spatial partitioning of volumetric content
// into independently prefetchable and decodable cells, the visibility maps
// that record which cells a user's 3D viewport covers, and the
// intersection-over-union (IoU) viewport-similarity metric between users —
// the machinery behind Fig. 1 and Fig. 2 of the paper.
package cell

import (
	"fmt"
	"math"

	"volcast/internal/geom"
	"volcast/internal/pointcloud"
)

// Size25, Size50 and Size100 are the three partition granularities studied
// in the paper (cell edge length in meters).
const (
	Size25  = 0.25
	Size50  = 0.50
	Size100 = 1.00
)

// Grid is a uniform spatial partition of a content bounding box into cubic
// cells of a fixed edge length. The zero value is not usable; construct
// with NewGrid.
type Grid struct {
	origin     geom.Vec3 // min corner of cell (0,0,0)
	size       float64   // cell edge length, meters
	nx, ny, nz int       // cell counts along each axis
}

// NewGrid partitions the given bounds into cubic cells with the given edge
// length. The grid is expanded to fully cover bounds.
func NewGrid(bounds geom.AABB, size float64) (*Grid, error) {
	if size <= 0 {
		return nil, fmt.Errorf("cell: size %v must be positive", size)
	}
	ext := bounds.Size()
	nx := int(math.Ceil(ext.X/size - 1e-9))
	ny := int(math.Ceil(ext.Y/size - 1e-9))
	nz := int(math.Ceil(ext.Z/size - 1e-9))
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	if nz < 1 {
		nz = 1
	}
	return &Grid{origin: bounds.Min, size: size, nx: nx, ny: ny, nz: nz}, nil
}

// Size returns the cell edge length in meters.
func (g *Grid) Size() float64 { return g.size }

// Dims returns the cell counts along X, Y, Z.
func (g *Grid) Dims() (nx, ny, nz int) { return g.nx, g.ny, g.nz }

// NumCells returns the total cell count.
func (g *Grid) NumCells() int { return g.nx * g.ny * g.nz }

// ID is a dense cell index in [0, NumCells).
type ID int32

// IndexOf returns the cell ID containing point p, and false when p lies
// outside the grid.
func (g *Grid) IndexOf(p geom.Vec3) (ID, bool) {
	d := p.Sub(g.origin)
	ix := int(math.Floor(d.X / g.size))
	iy := int(math.Floor(d.Y / g.size))
	iz := int(math.Floor(d.Z / g.size))
	// Points exactly on the max boundary belong to the last cell.
	if ix == g.nx && d.X/g.size-float64(g.nx) < 1e-9 {
		ix = g.nx - 1
	}
	if iy == g.ny && d.Y/g.size-float64(g.ny) < 1e-9 {
		iy = g.ny - 1
	}
	if iz == g.nz && d.Z/g.size-float64(g.nz) < 1e-9 {
		iz = g.nz - 1
	}
	if ix < 0 || iy < 0 || iz < 0 || ix >= g.nx || iy >= g.ny || iz >= g.nz {
		return 0, false
	}
	return ID(ix + g.nx*(iy+g.ny*iz)), true
}

// Coords returns the integer (x,y,z) coordinates of a cell ID.
func (g *Grid) Coords(id ID) (ix, iy, iz int) {
	i := int(id)
	ix = i % g.nx
	i /= g.nx
	iy = i % g.ny
	iz = i / g.ny
	return ix, iy, iz
}

// Bounds returns the AABB of the given cell.
func (g *Grid) Bounds(id ID) geom.AABB {
	ix, iy, iz := g.Coords(id)
	min := g.origin.Add(geom.V(float64(ix)*g.size, float64(iy)*g.size, float64(iz)*g.size))
	return geom.AABB{Min: min, Max: min.Add(geom.V(g.size, g.size, g.size))}
}

// Center returns the center point of the given cell.
func (g *Grid) Center(id ID) geom.Vec3 { return g.Bounds(id).Center() }

// Partition assigns every point of the cloud to its cell, returning for
// each occupied cell the indices of its points, ascending. Points outside
// the grid are ignored (they cannot occur when the grid was built from
// the cloud's own bounds). The keys are the frame's occupied cells.
//
// Each point is located once: a first pass records its cell and counts
// the cell's points, a second deals the indices into one backing slice
// cut into per-cell runs (capacity-limited, so appending to one run never
// spills into the next).
func (g *Grid) Partition(c *pointcloud.Cloud) map[ID][]int {
	const outside = -1
	cellOf := make([]ID, len(c.Points))
	next := make([]int, g.NumCells()+1) // next[id+1]: count, then fill cursor
	occupied := 0
	for i := range c.Points {
		id, ok := g.IndexOf(c.Points[i].Pos)
		if !ok {
			cellOf[i] = outside
			continue
		}
		cellOf[i] = id
		if next[id+1] == 0 {
			occupied++
		}
		next[id+1]++
	}
	// Turn counts into start offsets: next[id+1] becomes where cell id's
	// run begins, and the fill below advances it to where the run ends.
	inside := 0
	for i := 1; i < len(next); i++ {
		n := next[i]
		next[i] = inside
		inside += n
	}
	backing := make([]int, inside)
	for i, id := range cellOf {
		if id != outside {
			backing[next[id+1]] = i
			next[id+1]++
		}
	}
	out := make(map[ID][]int, occupied)
	for id := 0; id+1 < len(next); id++ {
		if lo, hi := next[id], next[id+1]; hi > lo {
			out[ID(id)] = backing[lo:hi:hi]
		}
	}
	return out
}

// OccupiedCells returns the sorted-unique set of cells holding at least one
// point, as a Set.
func (g *Grid) OccupiedCells(c *pointcloud.Cloud) *Set {
	s := NewSet(g.NumCells())
	for _, p := range c.Points {
		if id, ok := g.IndexOf(p.Pos); ok {
			s.Add(id)
		}
	}
	return s
}

// VisibleCells computes the visibility map of a viewer: the subset of
// `occupied` cells whose AABB intersects the viewer's frustum. This is the
// frustum-culling step the paper uses to define per-user visibility maps.
func (g *Grid) VisibleCells(occupied *Set, f geom.Frustum) *Set {
	out := NewSet(g.NumCells())
	occupied.ForEach(func(id ID) {
		if f.IntersectsAABB(g.Bounds(id)) {
			out.Add(id)
		}
	})
	return out
}

// Origin returns the grid's minimum corner (cell (0,0,0)'s min corner).
func (g *Grid) Origin() geom.Vec3 { return g.origin }
