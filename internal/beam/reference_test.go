package beam

import (
	"math"
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
