package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// FrameReport is the deadline verdict for one (frame, user) pair: the
// per-stage latency breakdown, whether the frame blew its budget, and —
// when it did — the stage responsible. Frame-global spans (User ==
// PipelineUser, e.g. planning) are charged to every user of that frame,
// because each user's frame latency really does include the shared work.
type FrameReport struct {
	Frame      int                `json:"frame"`
	User       int                `json:"user"`
	TotalMS    float64            `json:"total_ms"`
	DeadlineMS float64            `json:"deadline_ms"`
	Missed     bool               `json:"missed"`
	Slowest    string             `json:"slowest"`
	SlowestMS  float64            `json:"slowest_ms"`
	Stages     map[string]float64 `json:"stages"`
	// OverBudget maps each stage that exceeded its per-stage budget (see
	// Tracer.StageBudget) to the overrun in milliseconds. A frame can
	// violate a stage budget without missing the frame deadline — that is
	// the early-warning signal the budgets exist for.
	OverBudget map[string]float64 `json:"over_budget,omitempty"`
}

// frameKey groups spans per (frame, user).
type frameKey struct {
	frame int32
	user  int32
}

// Analyze groups the held spans per (frame, user), charges frame-global
// spans to every user active in that frame, and returns one report per
// pair, sorted by (frame, user). Spans with Frame < 0 (pipeline work not
// tied to a frame, e.g. cache fills) are excluded. A frame with only
// global spans (e.g. store-build encode work) reports as User ==
// PipelineUser.
func (t *Tracer) Analyze() []FrameReport {
	if t == nil {
		return nil
	}
	spans := t.Snapshot()
	var budgetMS [numStages]float64
	for s := Stage(0); s < numStages; s++ {
		budgetMS[s] = float64(t.StageBudget(s)) / float64(time.Millisecond)
	}

	perUser := map[frameKey][numStages]float64{}
	global := map[int32][numStages]float64{}
	frameUsers := map[int32]map[int32]bool{}
	for _, sp := range spans {
		if sp.Frame < 0 {
			continue
		}
		ms := float64(sp.Dur) / float64(time.Millisecond)
		if sp.User == PipelineUser {
			st := global[sp.Frame]
			st[sp.Stage] += ms
			global[sp.Frame] = st
			continue
		}
		k := frameKey{sp.Frame, sp.User}
		st := perUser[k]
		st[sp.Stage] += ms
		perUser[k] = st
		if frameUsers[sp.Frame] == nil {
			frameUsers[sp.Frame] = map[int32]bool{}
		}
		frameUsers[sp.Frame][sp.User] = true
	}
	// Frames with no per-user spans keep their global work as a
	// PipelineUser row so build-phase frames still get a verdict.
	for f := range global {
		if len(frameUsers[f]) == 0 {
			perUser[frameKey{f, PipelineUser}] = [numStages]float64{}
		}
	}

	out := make([]FrameReport, 0, len(perUser))
	deadlineMS := float64(DefaultDeadline) / float64(time.Millisecond)
	for k, stages := range perUser {
		if g, ok := global[k.frame]; ok {
			for s := range g {
				stages[s] += g[s]
			}
		}
		r := FrameReport{
			Frame:      int(k.frame),
			User:       int(k.user),
			DeadlineMS: deadlineMS,
			Stages:     map[string]float64{},
		}
		slowest := Stage(0)
		for s, ms := range stages {
			if ms <= 0 {
				continue
			}
			r.TotalMS += ms
			r.Stages[Stage(s).String()] = ms
			if ms > r.SlowestMS {
				r.SlowestMS = ms
				slowest = Stage(s)
			}
			if b := budgetMS[s]; b > 0 && ms > b {
				if r.OverBudget == nil {
					r.OverBudget = map[string]float64{}
				}
				r.OverBudget[Stage(s).String()] = ms - b
			}
		}
		if r.SlowestMS > 0 {
			r.Slowest = slowest.String()
		}
		r.Missed = r.TotalMS > deadlineMS
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Frame != out[j].Frame {
			return out[i].Frame < out[j].Frame
		}
		return out[i].User < out[j].User
	})
	return out
}

// UserQoE is one row of the per-user quality table derived from a trace:
// delivered frames, deadline misses, and where the missed budgets went.
type UserQoE struct {
	User int `json:"user"`
	// Label is a human-readable identity for the user row (e.g.
	// "scene3/client41" under the session hub). Filled by the debug
	// endpoint's UserLabel hook; empty when no labeling is wired.
	Label string `json:"label,omitempty"`
	// Frames is the number of traced frames for this user.
	Frames int `json:"frames"`
	// Misses counts frames over budget; MissPct is the ratio.
	Misses  int     `json:"misses"`
	MissPct float64 `json:"miss_pct"`
	// AvgFrameMS is the mean attributed frame latency.
	AvgFrameMS float64 `json:"avg_frame_ms"`
	// EstFPS estimates the delivered rate from the span time range.
	EstFPS float64 `json:"est_fps"`
	// StallMS sums the time by which missed frames overran the budget —
	// the lower bound on stall time the misses induce.
	StallMS float64 `json:"stall_ms"`
	// TopStage is the stage most often responsible for missed frames
	// (empty with no misses).
	TopStage string `json:"top_stage"`
}

// QoE aggregates Analyze per user, sorted by user index. PipelineUser
// rows (build-phase frames) are excluded.
func (t *Tracer) QoE() []UserQoE {
	if t == nil {
		return nil
	}
	reports := t.Analyze()
	// Wall-time range per user, from the raw spans, for the FPS estimate.
	firstNS := map[int]int64{}
	lastNS := map[int]int64{}
	for _, sp := range t.Snapshot() {
		if sp.User < 0 || sp.Frame < 0 {
			continue
		}
		u := int(sp.User)
		if _, ok := firstNS[u]; !ok || sp.Start < firstNS[u] {
			firstNS[u] = sp.Start
		}
		if end := sp.Start + sp.Dur; end > lastNS[u] {
			lastNS[u] = end
		}
	}
	rows := map[int]*UserQoE{}
	topStage := map[int]map[string]int{}
	for _, r := range reports {
		if r.User == PipelineUser {
			continue
		}
		row := rows[r.User]
		if row == nil {
			row = &UserQoE{User: r.User}
			rows[r.User] = row
			topStage[r.User] = map[string]int{}
		}
		row.Frames++
		row.AvgFrameMS += r.TotalMS
		if r.Missed {
			row.Misses++
			row.StallMS += r.TotalMS - r.DeadlineMS
			topStage[r.User][r.Slowest]++
		}
	}
	out := make([]UserQoE, 0, len(rows))
	for u, row := range rows {
		if row.Frames > 0 {
			row.AvgFrameMS /= float64(row.Frames)
			row.MissPct = float64(row.Misses) / float64(row.Frames) * 100
		}
		if span := lastNS[u] - firstNS[u]; span > 0 && row.Frames > 1 {
			row.EstFPS = float64(row.Frames-1) / (float64(span) / float64(time.Second))
		}
		best, bestN := "", 0
		for s, n := range topStage[u] {
			if n > bestN {
				best, bestN = s, n
			}
		}
		row.TopStage = best
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// WriteTimeline renders the per-(frame,user) breakdown as a compact text
// timeline, one line per pair, deadline misses marked MISS with their
// slowest stage.
func (t *Tracer) WriteTimeline(w io.Writer) error {
	if t == nil {
		return nil
	}
	for _, r := range t.Analyze() {
		user := fmt.Sprintf("user %d", r.User)
		if r.User == PipelineUser {
			user = "pipeline"
		}
		verdict := "ok  "
		if r.Missed {
			verdict = fmt.Sprintf("MISS slowest=%s(%.1fms)", r.Slowest, r.SlowestMS)
		}
		// Stages in pipeline order, skipping the absent ones.
		var parts []string
		for s := Stage(0); s < numStages; s++ {
			if ms, ok := r.Stages[s.String()]; ok {
				parts = append(parts, fmt.Sprintf("%s=%.2f", s, ms))
			}
		}
		if _, err := fmt.Fprintf(w, "frame %4d %-9s total %7.2fms %s  %s\n",
			r.Frame, user, r.TotalMS, verdict, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return nil
}
