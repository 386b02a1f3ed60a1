package cell

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"volcast/internal/geom"
	"volcast/internal/pointcloud"
)

func TestNewGrid(t *testing.T) {
	b := geom.NewAABB(geom.V(0, 0, 0), geom.V(1, 2, 0.4))
	g, err := NewGrid(b, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny, nz := g.Dims()
	if nx != 2 || ny != 4 || nz != 1 {
		t.Errorf("Dims = %d,%d,%d", nx, ny, nz)
	}
	if g.NumCells() != 8 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	if _, err := NewGrid(b, 0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewGrid(b, -1); err == nil {
		t.Error("negative size accepted")
	}
}

func TestGridDegenerate(t *testing.T) {
	// Zero-extent bounds still give a 1x1x1 grid.
	b := geom.AABB{Min: geom.V(1, 1, 1), Max: geom.V(1, 1, 1)}
	g, err := NewGrid(b, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 1 {
		t.Errorf("NumCells = %d, want 1", g.NumCells())
	}
	if id, ok := g.IndexOf(geom.V(1, 1, 1)); !ok || id != 0 {
		t.Errorf("IndexOf corner = %v, %v", id, ok)
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	b := geom.NewAABB(geom.V(-1, 0, 2), geom.V(1.4, 1.3, 3.2))
	g, err := NewGrid(b, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for id := ID(0); int(id) < g.NumCells(); id++ {
		c := g.Center(id)
		got, ok := g.IndexOf(c)
		if !ok || got != id {
			t.Fatalf("round trip failed for id %d: got %d, ok=%v", id, got, ok)
		}
		ix, iy, iz := g.Coords(id)
		nx, ny, nz := g.Dims()
		if ix < 0 || ix >= nx || iy < 0 || iy >= ny || iz < 0 || iz >= nz {
			t.Fatalf("coords out of range for %d: %d,%d,%d", id, ix, iy, iz)
		}
	}
}

func TestIndexOfOutside(t *testing.T) {
	g, _ := NewGrid(geom.NewAABB(geom.V(0, 0, 0), geom.V(1, 1, 1)), 0.5)
	if _, ok := g.IndexOf(geom.V(-0.1, 0.5, 0.5)); ok {
		t.Error("point outside grid indexed")
	}
	if _, ok := g.IndexOf(geom.V(0.5, 0.5, 5)); ok {
		t.Error("point outside grid indexed (z)")
	}
	// Max boundary belongs to last cell.
	if id, ok := g.IndexOf(geom.V(1, 1, 1)); !ok {
		t.Error("max corner not indexed")
	} else if id != ID(g.NumCells()-1) {
		t.Errorf("max corner id = %d", id)
	}
}

func TestPartitionCoversAllPoints(t *testing.T) {
	cfg := pointcloud.SynthConfig{Frames: 1, FPS: 30, PointsPerFrame: 20000, Seed: 3, Sway: 1}
	c := pointcloud.SynthFrame(cfg, 0)
	b, _ := c.Bounds()
	g, err := NewGrid(b, Size50)
	if err != nil {
		t.Fatal(err)
	}
	parts := g.Partition(c)
	total := 0
	for id, idxs := range parts {
		total += len(idxs)
		// Every point must actually be inside its cell bounds (within fp slack).
		cb := g.Bounds(id).Expand(1e-9)
		for _, i := range idxs {
			if !cb.Contains(c.Points[i].Pos) {
				t.Fatalf("point %d not inside cell %d", i, id)
			}
		}
	}
	if total != c.Len() {
		t.Errorf("partition covered %d of %d points", total, c.Len())
	}
	occ := g.OccupiedCells(c)
	if occ.Count() != len(parts) {
		t.Errorf("OccupiedCells = %d, Partition = %d", occ.Count(), len(parts))
	}
}

// TestPartitionMatchesAppendReference pins the count-then-fill Partition
// to the append-per-point loop it replaced: same cells, same indices in
// the same (ascending) order, points outside the grid dropped, and runs
// that share a backing slice without sharing capacity.
func TestPartitionMatchesAppendReference(t *testing.T) {
	cfg := pointcloud.SynthConfig{Frames: 1, FPS: 30, PointsPerFrame: 20000, Seed: 5, Sway: 1}
	c := pointcloud.SynthFrame(cfg, 0)
	b, _ := c.Bounds()
	// A grid over the lower half only, so many points fall outside it.
	b.Max.Y = (b.Min.Y + b.Max.Y) / 2
	for _, size := range []float64{Size25, Size50, Size100} {
		g, err := NewGrid(b, size)
		if err != nil {
			t.Fatal(err)
		}
		want := map[ID][]int{}
		for i, p := range c.Points {
			if id, ok := g.IndexOf(p.Pos); ok {
				want[id] = append(want[id], i)
			}
		}
		got := g.Partition(c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("size %v: Partition differs from the append reference", size)
		}
		occ := g.OccupiedCells(c)
		for id, idxs := range got {
			if !occ.Contains(id) {
				t.Fatalf("size %v: cell %d partitioned but not occupied", size, id)
			}
			if cap(idxs) != len(idxs) {
				t.Fatalf("size %v: cell %d run has spare capacity %d into its neighbour", size, id, cap(idxs)-len(idxs))
			}
		}
		if occ.Count() != len(got) {
			t.Fatalf("size %v: OccupiedCells = %d, Partition = %d", size, occ.Count(), len(got))
		}
	}
	empty := &pointcloud.Cloud{}
	g, _ := NewGrid(b, Size50)
	if got := g.Partition(empty); len(got) != 0 {
		t.Fatalf("empty cloud partitioned into %d cells", len(got))
	}
}

func TestVisibleCells(t *testing.T) {
	// Occupied cells along a line on +Z; viewer at origin looking +Z sees
	// them; looking -Z sees none.
	b := geom.NewAABB(geom.V(-2, -2, -2), geom.V(2, 2, 8))
	g, _ := NewGrid(b, 1)
	occ := NewSet(g.NumCells())
	for z := 1.5; z < 7; z++ {
		id, ok := g.IndexOf(geom.V(0.5, 0.5, z))
		if !ok {
			t.Fatal("setup: point not in grid")
		}
		occ.Add(id)
	}
	fw := geom.NewFrustum(geom.Pose{Rot: geom.QuatIdent()}, geom.DefaultFrustumParams())
	vis := g.VisibleCells(occ, fw)
	if vis.Count() == 0 {
		t.Error("forward viewer sees nothing")
	}
	back := geom.NewFrustum(geom.Pose{Rot: geom.AxisAngle(geom.V(0, 1, 0), math.Pi)}, geom.DefaultFrustumParams())
	vis2 := g.VisibleCells(occ, back)
	if vis2.Count() != 0 {
		t.Errorf("backward viewer sees %d cells", vis2.Count())
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(130)
	s.Add(0)
	s.Add(64)
	s.Add(129)
	s.Add(999) // ignored
	s.Add(-1)  // ignored via ID cast: Add takes ID; test via Contains
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
	if !s.Contains(64) || s.Contains(63) || s.Contains(999) {
		t.Error("Contains misbehaves")
	}
	ids := s.IDs()
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 64 || ids[2] != 129 {
		t.Errorf("IDs = %v", ids)
	}
	c := s.Clone()
	c.Add(5)
	if s.Contains(5) {
		t.Error("Clone aliases storage")
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet(100)
	b := NewSet(100)
	for _, id := range []ID{1, 2, 3, 70} {
		a.Add(id)
	}
	for _, id := range []ID{2, 3, 4, 71} {
		b.Add(id)
	}
	if got := a.IntersectCount(b); got != 2 {
		t.Errorf("IntersectCount = %d", got)
	}
	if got := a.UnionCount(b); got != 6 {
		t.Errorf("UnionCount = %d", got)
	}
	if got := a.Intersect(b).IDs(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b).Count(); got != 6 {
		t.Errorf("Union = %d", got)
	}
}

func TestSetDifferentCapacities(t *testing.T) {
	a := NewSet(10)
	b := NewSet(200)
	a.Add(5)
	b.Add(5)
	b.Add(150)
	if got := a.IntersectCount(b); got != 1 {
		t.Errorf("IntersectCount = %d", got)
	}
	if got := a.UnionCount(b); got != 2 {
		t.Errorf("UnionCount = %d", got)
	}
	u := a.Union(b)
	if !u.Contains(150) || !u.Contains(5) {
		t.Error("Union across capacities dropped bits")
	}
}

func TestIoU(t *testing.T) {
	a := NewSet(100)
	b := NewSet(100)
	// Paper's Fig. 1 example: user1 sees {1,3,5,6,7,8}, user2 {1,2,3,4,5,7};
	// intersection {1,3,5,7} = 4, union = 8, IoU = 0.5.
	for _, id := range []ID{1, 3, 5, 6, 7, 8} {
		a.Add(id)
	}
	for _, id := range []ID{1, 2, 3, 4, 5, 7} {
		b.Add(id)
	}
	if got := IoU(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("IoU = %v, want 0.5 (paper Fig. 1 example)", got)
	}
	if got := IoU(NewSet(10), NewSet(10)); got != 1 {
		t.Errorf("IoU of empties = %v, want 1", got)
	}
	if got := IoU(a, a); got != 1 {
		t.Errorf("IoU self = %v", got)
	}
	if got := IoU(a, NewSet(100)); got != 0 {
		t.Errorf("IoU vs empty = %v", got)
	}
}

func TestGroupIoU(t *testing.T) {
	a, b, c := NewSet(50), NewSet(50), NewSet(50)
	for _, id := range []ID{1, 2, 3} {
		a.Add(id)
	}
	for _, id := range []ID{2, 3, 4} {
		b.Add(id)
	}
	for _, id := range []ID{3, 4, 5} {
		c.Add(id)
	}
	// ∩ = {3} (1), ∪ = {1..5} (5)
	if got := GroupIoU([]*Set{a, b, c}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("GroupIoU = %v, want 0.2", got)
	}
	if got := GroupIoU(nil); got != 1 {
		t.Errorf("GroupIoU(nil) = %v", got)
	}
	// Pairwise GroupIoU must match IoU.
	if g2, i2 := GroupIoU([]*Set{a, b}), IoU(a, b); math.Abs(g2-i2) > 1e-12 {
		t.Errorf("GroupIoU pair %v != IoU %v", g2, i2)
	}
}

// Property: GroupIoU of k maps never exceeds pairwise IoU of any two of
// them (adding users can only shrink the intersection and grow the union)
// — the mechanism behind Fig. 2b's HM(3) < HM(2) observation.
func TestPropertyGroupIoUMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() *Set {
			s := NewSet(128)
			for i := 0; i < 40; i++ {
				s.Add(ID(r.Intn(128)))
			}
			return s
		}
		a, b, c := mk(), mk(), mk()
		g3 := GroupIoU([]*Set{a, b, c})
		return g3 <= IoU(a, b)+1e-12 && g3 <= IoU(b, c)+1e-12 && g3 <= IoU(a, c)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: IoU is symmetric and in [0,1].
func TestPropertyIoUBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := NewSet(256), NewSet(256)
		for i := 0; i < 60; i++ {
			a.Add(ID(r.Intn(256)))
			b.Add(ID(r.Intn(256)))
		}
		x, y := IoU(a, b), IoU(b, a)
		return x == y && x >= 0 && x <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIoU(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := NewSet(4096), NewSet(4096)
	for i := 0; i < 1000; i++ {
		x.Add(ID(r.Intn(4096)))
		y.Add(ID(r.Intn(4096)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = IoU(x, y)
	}
}

func BenchmarkPartition550K(b *testing.B) {
	cfg := pointcloud.SynthConfig{Frames: 1, FPS: 30, PointsPerFrame: 550_000, Seed: 1, Sway: 1}
	c := pointcloud.SynthFrame(cfg, 0)
	bounds, _ := c.Bounds()
	g, _ := NewGrid(bounds, Size50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.OccupiedCells(c)
	}
}
