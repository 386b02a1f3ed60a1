// Package vivo implements the visibility-aware streaming optimizations of
// ViVo (Han et al., MobiCom '20), the state-of-the-art single-user system
// the paper extends to multiple users and benchmarks in Table 1:
//
//   - viewport (frustum) culling: only cells intersecting the user's 3D
//     viewport are fetched;
//   - occlusion culling: cells hidden behind nearer occupied cells are
//     skipped;
//   - distance-based LOD: far cells are fetched at reduced point density.
//
// The package turns a user pose plus the frame's occupied-cell set into a
// concrete per-cell fetch request (cell ID + density stride). The vanilla
// baseline (fetch everything at full density) is also provided.
package vivo

import (
	"math"
	"sync"

	"volcast/internal/cell"
	"volcast/internal/geom"
)

// LODLevel maps a viewing distance bound to a point-density stride: a
// stride of k keeps every k-th point of the cell (stride 1 = full
// density). Levels must be ordered by increasing MaxDist.
type LODLevel struct {
	// MaxDist is the upper viewing-distance bound (meters) of this level.
	MaxDist float64
	// Stride is the density reduction (1 = full).
	Stride int
}

// Params configure the visibility pipeline.
type Params struct {
	// Frustum describes the client viewport.
	Frustum geom.FrustumParams
	// Occlusion enables cell-level occlusion culling.
	Occlusion bool
	// OcclusionBins is the angular resolution (azimuth bins; elevation
	// uses half as many) of the occlusion depth buffer.
	OcclusionBins int
	// OcclusionDepth is the depth tolerance in multiples of the cell
	// diagonal: cells within this distance behind the nearest cell of the
	// same angular bin survive (they may peek around it).
	OcclusionDepth float64
	// LOD holds the distance ladder; empty disables distance adaptation.
	LOD []LODLevel
}

// DefaultParams returns the configuration used by the multi-user ViVo
// prototype in the experiments.
func DefaultParams() Params {
	return Params{
		Frustum:        geom.DefaultFrustumParams(),
		Occlusion:      true,
		OcclusionBins:  96,
		OcclusionDepth: 1.5,
		LOD: []LODLevel{
			{MaxDist: 2.0, Stride: 1},
			{MaxDist: 3.5, Stride: 2},
			{MaxDist: 5.0, Stride: 3},
			{MaxDist: math.Inf(1), Stride: 4},
		},
	}
}

// CellRequest is one cell the client should fetch at the given density.
type CellRequest struct {
	ID     cell.ID
	Stride int
}

// Request is a complete per-frame fetch decision for one user.
type Request struct {
	Cells []CellRequest
}

// Visibility computes fetch requests for frames partitioned on a grid.
type Visibility struct {
	g *cell.Grid
	p Params
}

// New returns a Visibility for the given grid. Zero-value params are
// replaced with DefaultParams.
func New(g *cell.Grid, p Params) *Visibility {
	if p.Frustum == (geom.FrustumParams{}) {
		p.Frustum = geom.DefaultFrustumParams()
	}
	if p.OcclusionBins <= 0 {
		p.OcclusionBins = DefaultParams().OcclusionBins
	}
	if p.OcclusionDepth <= 0 {
		p.OcclusionDepth = DefaultParams().OcclusionDepth
	}
	return &Visibility{g: g, p: p}
}

// Visible returns the frustum-culled subset of occupied cells.
func (v *Visibility) Visible(occ *cell.Set, pose geom.Pose) *cell.Set {
	return v.g.VisibleCells(occ, geom.NewFrustum(pose, v.p.Frustum))
}

// depthBufs recycles Unoccluded's depth buffers (*[]float64): 36 KB at the
// default 96 bins, taken once per user per frame, by requests that may run
// concurrently (the hub's scenes, experiments run side by side).
var depthBufs sync.Pool

// Unoccluded filters vis down to cells not hidden behind nearer cells, as
// seen from eye. It uses an angular depth buffer: each cell splats its
// angular footprint with its distance; a cell loses when every bin it
// covers already holds a strictly nearer cell beyond the depth tolerance.
func (v *Visibility) Unoccluded(vis *cell.Set, eye geom.Vec3) *cell.Set {
	nAz := v.p.OcclusionBins
	nEl := nAz / 2
	if nEl < 1 {
		nEl = 1
	}
	buf, _ := depthBufs.Get().(*[]float64)
	if buf == nil || cap(*buf) < nAz*nEl {
		fresh := make([]float64, nAz*nEl)
		buf = &fresh
	}
	defer depthBufs.Put(buf)
	depth := (*buf)[:nAz*nEl]
	for i := range depth {
		depth[i] = math.Inf(1)
	}
	diag := v.g.Size() * math.Sqrt(3)
	tol := v.p.OcclusionDepth * diag

	type cellInfo struct {
		id   cell.ID
		dist float64
		az   float64
		el   float64
		ar   float64 // angular radius
	}
	infos := make([]cellInfo, 0, vis.Count())
	vis.ForEach(func(id cell.ID) {
		c := v.g.Center(id)
		d := c.Sub(eye)
		dist := d.Len()
		if dist < 1e-9 {
			dist = 1e-9
		}
		az, el := d.AzimuthElevation()
		ar := math.Atan2(diag/2, dist)
		infos = append(infos, cellInfo{id: id, dist: dist, az: az, el: el, ar: ar})
	})

	// Pass 1: splat occluders (shrunken footprint keeps the test
	// conservative: a cell only occludes the bins it surely covers).
	for _, ci := range infos {
		v.splat(depth, nAz, nEl, ci.az, ci.el, ci.ar*0.5, ci.dist)
	}
	// Pass 2: a cell survives if any bin in its (full) footprint has no
	// strictly nearer occluder beyond the tolerance.
	out := cell.NewSet(v.g.NumCells())
	for _, ci := range infos {
		if v.survives(depth, nAz, nEl, ci.az, ci.el, ci.ar, ci.dist, tol) {
			out.Add(ci.id)
		}
	}
	return out
}

func binIndex(az, el float64, nAz, nEl int) (int, int) {
	ia := int((az + math.Pi) / (2 * math.Pi) * float64(nAz))
	if ia < 0 {
		ia = 0
	}
	if ia >= nAz {
		ia = nAz - 1
	}
	ie := int((el + math.Pi/2) / math.Pi * float64(nEl))
	if ie < 0 {
		ie = 0
	}
	if ie >= nEl {
		ie = nEl - 1
	}
	return ia, ie
}

func (v *Visibility) splat(depth []float64, nAz, nEl int, az, el, ar, dist float64) {
	stepAz := 2 * math.Pi / float64(nAz)
	stepEl := math.Pi / float64(nEl)
	ra := int(ar/stepAz) + 1
	re := int(ar/stepEl) + 1
	ca, ce := binIndex(az, el, nAz, nEl)
	for da := -ra; da <= ra; da++ {
		ia := (ca + da + nAz) % nAz
		for de := -re; de <= re; de++ {
			ie := ce + de
			if ie < 0 || ie >= nEl {
				continue
			}
			idx := ia*nEl + ie
			if dist < depth[idx] {
				depth[idx] = dist
			}
		}
	}
}

func (v *Visibility) survives(depth []float64, nAz, nEl int, az, el, ar, dist, tol float64) bool {
	stepAz := 2 * math.Pi / float64(nAz)
	stepEl := math.Pi / float64(nEl)
	ra := int(ar/stepAz) + 1
	re := int(ar/stepEl) + 1
	ca, ce := binIndex(az, el, nAz, nEl)
	for da := -ra; da <= ra; da++ {
		ia := (ca + da + nAz) % nAz
		for de := -re; de <= re; de++ {
			ie := ce + de
			if ie < 0 || ie >= nEl {
				continue
			}
			if dist <= depth[ia*nEl+ie]+tol {
				return true
			}
		}
	}
	return false
}

// StrideFor returns the LOD stride for the given viewing distance.
func (v *Visibility) StrideFor(dist float64) int {
	for _, l := range v.p.LOD {
		if dist <= l.MaxDist {
			if l.Stride < 1 {
				return 1
			}
			return l.Stride
		}
	}
	return 1
}

// Request runs the full ViVo pipeline (frustum → occlusion → LOD) for one
// user pose against one frame's occupied cells.
func (v *Visibility) Request(occ *cell.Set, pose geom.Pose) Request {
	vis := v.Visible(occ, pose)
	if v.p.Occlusion {
		vis = v.Unoccluded(vis, pose.Pos)
	}
	req := Request{Cells: make([]CellRequest, 0, vis.Count())}
	vis.ForEach(func(id cell.ID) {
		d := v.g.Center(id).Dist(pose.Pos)
		req.Cells = append(req.Cells, CellRequest{ID: id, Stride: v.StrideFor(d)})
	})
	return req
}

// VanillaRequest fetches every occupied cell at full density — the
// baseline player that downloads whole frames.
func VanillaRequest(occ *cell.Set) Request {
	req := Request{Cells: make([]CellRequest, 0, occ.Count())}
	occ.ForEach(func(id cell.ID) {
		req.Cells = append(req.Cells, CellRequest{ID: id, Stride: 1})
	})
	return req
}

// Bytes sums the request's transfer size using the provided size oracle
// (typically backed by real encoded block sizes per stride).
func (r Request) Bytes(size func(id cell.ID, stride int) int) int {
	total := 0
	for _, c := range r.Cells {
		total += size(c.ID, c.Stride)
	}
	return total
}

// Points sums the request's decoded point count using the provided oracle.
func (r Request) Points(points func(id cell.ID, stride int) int) int {
	total := 0
	for _, c := range r.Cells {
		total += points(c.ID, c.Stride)
	}
	return total
}
