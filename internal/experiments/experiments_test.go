package experiments

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestExperimentsDocMatchesTable1 pins EXPERIMENTS.md to the code: the
// Table 1 block it prints must be, verbatim but for the padding at the
// line ends, what `volsim table1` renders at the documented (default)
// configuration. The document drifted from the simulator once without
// anything failing.
func TestExperimentsDocMatchesTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("renders Table 1 at full content scale")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Table1(DefaultTable1Config())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(RenderTable1(rows), "\n")
	for i := range lines {
		lines[i] = strings.TrimRight(lines[i], " ")
	}
	table := strings.Join(lines, "\n")
	if !strings.Contains(string(doc), "```\n"+table+"```") {
		t.Errorf("EXPERIMENTS.md does not contain the Table 1 that `go run ./cmd/volsim table1` prints:\n%s", table)
	}
}

// smallTable1 runs Table 1 at 10% content scale: the absolute FPS values
// shift but the structural properties (monotonicity, ViVo ≥ vanilla,
// ad ≥ ac) must hold at any scale.
func smallTable1(t *testing.T) []Table1Row {
	t.Helper()
	rows, err := Table1(Table1Config{Frames: 3, Seed: 1, Scale: 0.1, MaxADUsers: 4, MaxACUsers: 3})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestTable1Structure(t *testing.T) {
	rows := smallTable1(t)
	if len(rows) != 3+4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		for qi := 0; qi < 3; qi++ {
			if r.ViVoFPS[qi] < r.VanillaFPS[qi]-1e-9 {
				t.Errorf("%s n=%d q=%d: ViVo %v < vanilla %v",
					r.Net, r.Users, qi, r.ViVoFPS[qi], r.VanillaFPS[qi])
			}
			if r.VanillaFPS[qi] < 0 || r.VanillaFPS[qi] > 30+1e-9 {
				t.Errorf("FPS out of range: %v", r.VanillaFPS[qi])
			}
		}
		// Quality monotonicity: higher point count can't raise FPS.
		if r.VanillaFPS[2] > r.VanillaFPS[0]+1e-9 {
			t.Errorf("%s n=%d: 550K FPS above 330K", r.Net, r.Users)
		}
	}
	// User monotonicity per net + vanilla low quality.
	byNet := map[string][]Table1Row{}
	for _, r := range rows {
		byNet[r.Net] = append(byNet[r.Net], r)
	}
	for net, rs := range byNet {
		for i := 1; i < len(rs); i++ {
			if rs[i].VanillaFPS[0] > rs[i-1].VanillaFPS[0]+1e-9 {
				t.Errorf("%s: FPS rose from %d to %d users", net, rs[i-1].Users, rs[i].Users)
			}
			if rs[i].PerUserRateMbps > rs[i-1].PerUserRateMbps+1e-9 {
				t.Errorf("%s: per-user rate rose with users", net)
			}
		}
	}
	// ad must beat ac at the same user count (low quality).
	for n := 1; n <= 3; n++ {
		var ac, ad Table1Row
		for _, r := range rows {
			if r.Users == n && r.Net == "ac" {
				ac = r
			}
			if r.Users == n && r.Net == "ad" {
				ad = r
			}
		}
		if ad.VanillaFPS[0] < ac.VanillaFPS[0]-1e-9 {
			t.Errorf("n=%d: ad %v below ac %v", n, ad.VanillaFPS[0], ac.VanillaFPS[0])
		}
		if ad.PerUserRateMbps <= ac.PerUserRateMbps {
			t.Errorf("n=%d: ad rate %v not above ac %v", n, ad.PerUserRateMbps, ac.PerUserRateMbps)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "vivo550") || len(strings.Split(out, "\n")) < 8 {
		t.Error("RenderTable1 output malformed")
	}
}

func TestFig2a(t *testing.T) {
	series, err := Fig2a(Fig2Config{Frames: 90, Seed: 1, ScenePoints: 20_000, UsersPerGroup: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.IoU) != 90 {
			t.Fatalf("series length %d", len(s.IoU))
		}
		for f, v := range s.IoU {
			if v < 0 || v > 1 {
				t.Fatalf("IoU out of range at %d: %v", f, v)
			}
		}
		if s.UserA == s.UserB {
			t.Error("degenerate pair")
		}
	}
	// Series 0 is the high-similarity pair: mean above the global run.
	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	if mean(series[0].IoU) < 0.5 {
		t.Errorf("high-similarity pair mean %v", mean(series[0].IoU))
	}
	if out := RenderFig2a(series); !strings.Contains(out, "pair User") {
		t.Error("RenderFig2a malformed")
	}
}

func TestFig2bOrdering(t *testing.T) {
	curves, err := Fig2b(Fig2Config{Frames: 120, Seed: 1, ScenePoints: 20_000, UsersPerGroup: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("%d curves", len(curves))
	}
	med := map[string]float64{}
	for _, c := range curves {
		if len(c.IoUs) == 0 {
			t.Fatalf("curve %s empty", c.Label)
		}
		med[c.Label] = Percentile(c.IoUs, 0.5)
	}
	// The paper's orderings: coarser cells ≥ finer; phone ≥ headset;
	// pairs ≥ triples.
	if med["HM(2)-Seg(100cm)"] < med["HM(2)-Seg(50cm)"] {
		t.Errorf("100cm median %v below 50cm %v", med["HM(2)-Seg(100cm)"], med["HM(2)-Seg(50cm)"])
	}
	if med["PH(2)-Seg(50cm)"] < med["HM(2)-Seg(50cm)"] {
		t.Errorf("PH median %v below HM %v", med["PH(2)-Seg(50cm)"], med["HM(2)-Seg(50cm)"])
	}
	if med["HM(3)-Seg(50cm)"] > med["HM(2)-Seg(50cm)"] {
		t.Errorf("triple median %v above pair %v", med["HM(3)-Seg(50cm)"], med["HM(2)-Seg(50cm)"])
	}
	out := RenderCDF(
		[]string{curves[0].Label}, [][]float64{curves[0].IoUs})
	if !strings.Contains(out, "p50") {
		t.Error("RenderCDF malformed")
	}
}

func TestFig3bDegradesWithGroupSize(t *testing.T) {
	curves, err := Fig3b(Fig3Config{Samples: 60, Seed: 1, Frames: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("%d curves", len(curves))
	}
	prev := math.Inf(1)
	for _, c := range curves {
		m := Percentile(c.RSS, 0.5)
		if m > prev+1e-9 {
			t.Errorf("median RSS rose with group size: %v after %v", m, prev)
		}
		prev = m
	}
	if out := RenderFig3b(curves); !strings.Contains(out, "-68 dBm") {
		t.Error("RenderFig3b malformed")
	}
}

func TestFig3dCustomLiftsLowTail(t *testing.T) {
	res, err := Fig3d(Fig3Config{Samples: 60, Seed: 1, Frames: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DefaultRSS) != len(res.CustomRSS) || len(res.DefaultRSS) == 0 {
		t.Fatal("sample counts wrong")
	}
	// Selection rule guarantees custom >= default per sample.
	for i := range res.DefaultRSS {
		if res.CustomRSS[i] < res.DefaultRSS[i]-1e-9 {
			t.Fatalf("sample %d: custom %v below default %v", i, res.CustomRSS[i], res.DefaultRSS[i])
		}
	}
	// The paper's headline: the low tail (p10) improves by several dB.
	gain := Percentile(res.CustomRSS, 0.10) - Percentile(res.DefaultRSS, 0.10)
	if gain < 2 {
		t.Errorf("p10 improvement only %.1f dB", gain)
	}
	if out := RenderFig3d(res); !strings.Contains(out, "customized") {
		t.Error("RenderFig3d malformed")
	}
}

func TestFig3eOrdering(t *testing.T) {
	res, err := Fig3e(Fig3Config{Samples: 80, Seed: 1, Frames: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Fatal("no samples")
	}
	// Custom-beam multicast must dominate; default multicast must not
	// always beat unicast (the paper's warning).
	if res.MulticastCustom < res.Unicast || res.MulticastCustom < res.MulticastDefault {
		t.Errorf("custom %v not dominant (uni %v, def %v)",
			res.MulticastCustom, res.Unicast, res.MulticastDefault)
	}
	if res.WinsDefault >= res.Samples {
		t.Error("default multicast never lost to unicast — paper's caveat not reproduced")
	}
	if res.WinsCustom <= res.Samples/2 {
		t.Errorf("custom multicast won only %d/%d", res.WinsCustom, res.Samples)
	}
	for _, v := range []float64{res.Unicast, res.MulticastDefault, res.MulticastCustom} {
		if v < 0 || v > 1+1e-9 {
			t.Errorf("normalized throughput out of range: %v", v)
		}
	}
	if out := RenderFig3e(res); !strings.Contains(out, "unicast") {
		t.Error("RenderFig3e malformed")
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if got := Percentile(vals, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(vals, 1); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(vals, 0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
	// Input must not be mutated (sorted copy).
	if vals[0] != 5 {
		t.Error("Percentile mutated input")
	}
}

func TestTable1MulticastColumn(t *testing.T) {
	rows, err := Table1(Table1Config{
		Frames: 2, Seed: 1, Scale: 0.1, MaxADUsers: 4, MaxACUsers: 1,
		WithMulticast: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Net == "ac" {
			if r.MulticastFPS != ([3]float64{}) {
				t.Errorf("ac row has a multicast column")
			}
			continue
		}
		for qi := 0; qi < 3; qi++ {
			// The proposed system never does worse than unicast ViVo.
			if r.MulticastFPS[qi] < r.ViVoFPS[qi]-1e-9 {
				t.Errorf("ad n=%d q=%d: multicast %v below ViVo %v",
					r.Users, qi, r.MulticastFPS[qi], r.ViVoFPS[qi])
			}
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "mc550") || !strings.Contains(out, " - ") {
		t.Error("RenderTable1 multicast rendering malformed")
	}
}
