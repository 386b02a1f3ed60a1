package beam

import (
	"math"
	"math/rand"
	"testing"

	"volcast/internal/geom"
	"volcast/internal/phy"
	"volcast/internal/trace"
)

// The beam selection as it stood before it reused the RSS it had already
// measured, as the oracle for TestSelectMatchesReference: the custom beam
// and the default common sector are each probed afresh with GroupRSS.

func refDesignCustom(d *Designer, members []Member) (phy.AWV, error) {
	w, err := Combine(members)
	if err != nil {
		return nil, err
	}
	cur := append([]Member(nil), members...)
	for it := 0; it < d.RefineIters; it++ {
		rss := d.GroupRSS(w, cur)
		for i := range cur {
			cur[i].RSSDBm = rss[i]
		}
		w2, err := Combine(cur)
		if err != nil {
			return nil, err
		}
		if minRSS(d.GroupRSS(w2, cur)) > minRSS(rss) {
			w = w2
		}
	}
	return w, nil
}

func refBestDefaultCommon(d *Designer, members []Member) (phy.AWV, float64) {
	var best phy.AWV
	bestMin := math.Inf(-1)
	for s, sec := range d.Codebook.Sectors {
		m := math.Inf(1)
		for _, mem := range members {
			if v := mem.Link.SectorRSS(s, mem.Blocked); v < m {
				m = v
			}
		}
		if m > bestMin {
			best, bestMin = sec.W, m
		}
	}
	return best, bestMin
}

func refSelect(d *Designer, members []Member) (phy.AWV, []float64, Choice, error) {
	custom, err := refDesignCustom(d, members)
	if err != nil {
		return nil, nil, ChoseDefault, err
	}
	defW, defMin := refBestDefaultCommon(d, members)
	customRSS := d.GroupRSS(custom, members)
	if minRSS(customRSS) > defMin {
		return custom, customRSS, ChoseCustom, nil
	}
	return defW, d.GroupRSS(defW, members), ChoseDefault, nil
}

// studyGroups returns the members of every group the planner's seed sweep
// can ask about at one study step: each pair of the n users and all n
// together, each member's link swept under the bodies of the users
// outside the group, as the planner sweeps them.
func studyGroups(r *phy.Radio, cb *phy.Codebook, study *trace.Study, n, step int) [][]Member {
	pos := make([]geom.Vec3, n)
	bodies := make([]phy.Body, n)
	for u := range pos {
		pos[u] = study.Traces[u].PoseAt(step).Pos
		bodies[u] = phy.DefaultBody(pos[u])
	}
	var groups [][]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			groups = append(groups, []int{a, b}, []int{b, a})
		}
	}
	all := make([]int, n)
	for u := range all {
		all[u] = u
	}
	groups = append(groups, all)
	out := make([][]Member, 0, len(groups))
	for _, g := range groups {
		var blockers []phy.Body
		for _, b := range bodies {
			near := false
			for _, m := range g {
				near = near || geom.V(b.Center.X-pos[m].X, 0, b.Center.Z-pos[m].Z).Len() < 0.3
			}
			if !near {
				blockers = append(blockers, b)
			}
		}
		members := make([]Member, len(g))
		for i, m := range g {
			l := r.Link(cb, pos[m])
			members[i] = MemberOn(l, l.BlockedBy(blockers))
		}
		out = append(out, members)
	}
	return out
}

// TestSelectMatchesReference holds Select to the one that probed every
// beam afresh, with ==, over the planner differential's seed sweep (2–7
// users, one step a second) and refinement depths 0–2.
func TestSelectMatchesReference(t *testing.T) {
	frames := 60
	if testing.Short() {
		frames = 12
	}
	room := phy.DefaultRoom()
	a, err := phy.NewArray(8, 4, geom.V(0, 2.5, room.Bounds.Min.Z), geom.QuatIdent())
	if err != nil {
		t.Fatal(err)
	}
	r := phy.NewRadio(a, phy.NewChannel(room))
	cb := phy.DefaultCodebook(a, phy.DefaultCodebookConfig())
	study := trace.GenerateStudy(30*frames+1, 1)
	chose := map[Choice]int{}
	for f := 0; f < frames; f++ {
		d := NewDesigner(r, cb)
		d.RefineIters = f % 3
		for _, members := range studyGroups(r, cb, study, 2+f%6, 30*f) {
			gw, grss, gc, gerr := d.Select(members)
			ww, wrss, wc, werr := refSelect(d, members)
			if (gerr != nil) != (werr != nil) || gc != wc || len(gw) != len(ww) || len(grss) != len(wrss) {
				t.Fatalf("frame %d: Select %v %v %d %d, reference %v %v %d %d", f, gerr, gc, len(gw), len(grss), werr, wc, len(ww), len(wrss))
			}
			for e := range gw {
				if gw[e] != ww[e] {
					t.Fatalf("frame %d: weight %d %v, reference %v", f, e, gw[e], ww[e])
				}
			}
			for i := range grss {
				if math.Float64bits(grss[i]) != math.Float64bits(wrss[i]) {
					t.Fatalf("frame %d: member %d RSS %v, reference %v", f, i, grss[i], wrss[i])
				}
			}
			chose[gc]++
		}
	}
	if chose[ChoseDefault] == 0 || chose[ChoseCustom] == 0 {
		t.Errorf("choices %v: the sweep must exercise both rules", chose)
	}
}

// refCommonSector is refBestDefaultCommon by sector index, over fresh
// links toward the members, so that no memo of theirs is shared.
func refCommonSector(r *phy.Radio, cb *phy.Codebook, members []Member) (int, float64) {
	links := make([]*phy.Link, len(members))
	for i, mem := range members {
		links[i] = r.Link(cb, mem.Pos)
	}
	best, bestMin := -1, math.Inf(-1)
	for s := range cb.Sectors {
		m := math.Inf(1)
		for i, mem := range members {
			if v := links[i].SectorRSS(s, mem.Blocked); v < m {
				m = v
			}
		}
		if m > bestMin {
			best, bestMin = s, m
		}
	}
	return best, bestMin
}

// sameCommon requires bestDefaultCommon's sector and bottleneck, and
// Select's beam, RSS and choice, to be the references' for the group.
func sameCommon(t *testing.T, d *Designer, members []Member) {
	t.Helper()
	ws, wmin := refCommonSector(d.Radio, d.Codebook, members)
	if gs, gmin := d.bestDefaultCommon(members); gs != ws || gmin != wmin {
		t.Fatalf("bestDefaultCommon %d %v, reference %d %v", gs, gmin, ws, wmin)
	}
	gw, grss, gc, gerr := d.Select(members)
	ww, wrss, wc, werr := refSelect(d, members)
	if (gerr != nil) != (werr != nil) || gc != wc || len(gw) != len(ww) || len(grss) != len(wrss) {
		t.Fatalf("Select %v %v %d %d, reference %v %v %d %d", gerr, gc, len(gw), len(grss), werr, wc, len(ww), len(wrss))
	}
	for e := range gw {
		if gw[e] != ww[e] {
			t.Fatalf("Select weight %d %v, reference %v", e, gw[e], ww[e])
		}
	}
	for i := range grss {
		if math.Float64bits(grss[i]) != math.Float64bits(wrss[i]) {
			t.Fatalf("Select member %d RSS %v, reference %v", i, grss[i], wrss[i])
		}
	}
}

// TestSelectTiesMatchReference holds the common sector and Select to the
// references where the ranking cannot tell sectors apart. Exact ties:
// with every sector of the codebook followed by a copy of itself, the
// common sector must be the first of its pair, over the study's groups.
// Near ties: on an array without imperfections, two members standing
// mirror images of each other across the plane of its symmetric sectors
// give each mirrored pair the same bottleneck within rounding.
func TestSelectTiesMatchReference(t *testing.T) {
	room := phy.DefaultRoom()
	a, err := phy.NewArray(8, 4, geom.V(0, 2.5, room.Bounds.Min.Z), geom.QuatIdent())
	if err != nil {
		t.Fatal(err)
	}
	r := phy.NewRadio(a, phy.NewChannel(room))
	twins := &phy.Codebook{}
	for _, sec := range phy.DefaultCodebook(a, phy.DefaultCodebookConfig()).Sectors {
		twins.Sectors = append(twins.Sectors, sec, sec)
	}
	for s := range twins.Sectors {
		twins.Sectors[s].Index = s
	}
	study := trace.GenerateStudy(30*12+1, 1)
	d := NewDesigner(r, twins)
	for f := 0; f < 12; f++ {
		for _, members := range studyGroups(r, twins, study, 2+f%6, 30*f) {
			if s, _ := d.bestDefaultCommon(members); s%2 != 0 {
				t.Fatalf("frame %d: common sector %d is the second of its pair", f, s)
			}
			sameCommon(t, d, members)
		}
	}

	ideal := &phy.Array{NX: 8, NY: 4, SpacingWl: 0.5, ElementGainDBi: 5, Pos: a.Pos, Rot: a.Rot}
	rnd := rand.New(rand.NewSource(43))
	near := 0
	for i := 0; i < 24; i++ {
		ch := phy.NewChannel(room)
		ch.SecondOrder = i%2 == 1
		x, y, z := 0.3+rnd.Float64()*3, 1+rnd.Float64(), rnd.Float64()*6-3
		if i%4 >= 2 {
			bx, bz := 0.5+rnd.Float64()*2, rnd.Float64()*6-3
			ch.Bodies = []phy.Body{phy.DefaultBody(geom.V(bx, 0, bz)), phy.DefaultBody(geom.V(-bx, 0, bz))}
		}
		d := NewDesigner(phy.NewRadio(ideal, ch), phy.DefaultCodebook(ideal, phy.DefaultCodebookConfig()))
		d.RefineIters = i % 3
		members := []Member{d.MemberFor(geom.V(x, y, z)), d.MemberFor(geom.V(-x, y, z))}
		sameCommon(t, d, members)
		s, m := d.bestDefaultCommon(members)
		mirror := s - s%32 + 31 - s%32 // the default codebook's rows are 32 azimuth sectors
		if mm := math.Min(members[0].Link.SectorRSS(mirror, members[0].Blocked), members[1].Link.SectorRSS(mirror, members[1].Blocked)); math.Abs(mm-m) < 1e-9 {
			near++
		}
	}
	if near == 0 {
		t.Fatal("no mirrored sector came within 1e-9 dB of the common sector's bottleneck")
	}
	t.Logf("%d of 24 mirrored groups had their common sector's mirror within 1e-9 dB", near)
}
