package experiment

import (
	"context"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// figureSet holds built paper figures by registry ID.
type figureSet map[string]Figure

// series returns a system's curve in figure id.
func (f figureSet) series(id, system string) Series {
	s, ok := f[id].SeriesFor(system)
	if !ok {
		panic("figure " + id + " has no " + system + " series")
	}
	return s
}

func (f figureSet) means(id, system string) []float64 { return f.series(id, system).Means() }

// growth is a curve's last point over its first.
func growth(m []float64) float64 { return m[len(m)-1] / m[0] }

// everywhere reports whether rel holds between a and b at every x.
func everywhere(a, b []float64, rel func(x, y float64) bool) bool {
	for i := range a {
		if !rel(a[i], b[i]) {
			return false
		}
	}
	return true
}

func less(x, y float64) bool { return x < y }

// lowest reports whether system's mean is below every other system's at
// every x of figure id.
func (f figureSet) lowest(id, system string) bool {
	for _, s := range f[id].Series {
		if s.System != system && !everywhere(f.means(id, system), s.Means(), less) {
			return false
		}
	}
	return true
}

// clearlyBelow reports whether a's ci95 interval lies wholly below b's at
// point i of figure id: the scorecard's "clearly".
func (f figureSet) clearlyBelow(id, a, b string, i int) bool {
	pa, pb := f.series(id, a).Points[i].Y, f.series(id, b).Points[i].Y
	return pa.Mean+pa.CI95 < pb.Mean-pb.CI95
}

// paperClaim is one row of EXPERIMENTS.md's per-figure scorecard tables: the
// paper's qualitative claim as a predicate over the built figures, and its
// grade there. A ✅ claim must hold; a ⚠️ or ❌ claim is a known deviation
// and must still fail, so a change that fixes it is noticed and regraded.
type paperClaim struct {
	name  string
	grade string
	holds func(f figureSet) bool
}

// paperClaims lists the scorecard's rows figure by figure, in the order
// EXPERIMENTS.md gives them. Only a claim the scorecard calls "clearly"
// compares ci95 intervals; every other comparison is between means.
var paperClaims = []paperClaim{
	// Figure 4: QoS throughput vs mobility.
	{"fig4/refer_highest_slight_decrease", "✅", func(f figureSet) bool {
		refer := f.means("4", SystemREFER)
		for _, sys := range []string{SystemDaTree, SystemDDEAR, SystemKautzOverlay} {
			if !everywhere(f.means("4", sys), refer, less) {
				return false
			}
		}
		return growth(refer) >= 0.95
	}},
	{"fig4/ko_declines_second_steepest", "✅", func(f figureSet) bool {
		ko := growth(f.means("4", SystemKautzOverlay))
		return ko < 1 && ko < growth(f.means("4", SystemREFER)) && ko < growth(f.means("4", SystemDDEAR)) &&
			growth(f.means("4", SystemDaTree)) < ko
	}},
	{"fig4/datree_declines_clearly_lowest_from_1mps", "⚠️", func(f figureSet) bool {
		if growth(f.means("4", SystemDaTree)) >= 1 {
			return false
		}
		for i, p := range f.series("4", SystemDaTree).Points {
			for _, sys := range []string{SystemREFER, SystemDDEAR, SystemKautzOverlay} {
				if p.X >= 1 && !f.clearlyBelow("4", SystemDaTree, sys, i) {
					return false
				}
			}
		}
		return true
	}},
	{"fig4/ddear_moderate_decrease", "⚠️", func(f figureSet) bool {
		return growth(f.means("4", SystemDDEAR)) <= 0.95
	}},

	// Figure 5: communication energy vs mobility.
	{"fig5/all_grow", "⚠️", func(f figureSet) bool {
		for _, s := range f["5"].Series {
			m := s.Means()
			if !everywhere(m[:len(m)-1], m[1:], less) {
				return false
			}
		}
		return true
	}},
	{"fig5/refer_lowest_slight_increase", "⚠️", func(f figureSet) bool {
		return f.lowest("5", SystemREFER) && growth(f.means("5", SystemREFER)) <= 1.2
	}},
	{"fig5/ko_below_datree_at_0.5mps", "✅", func(f figureSet) bool {
		return f.means("5", SystemKautzOverlay)[0] < f.means("5", SystemDaTree)[0]
	}},
	{"fig5/ko_above_datree_at_2.5mps", "❌", func(f figureSet) bool {
		ko, dt := f.means("5", SystemKautzOverlay), f.means("5", SystemDaTree)
		return ko[len(ko)-1] > dt[len(dt)-1]
	}},
	{"fig5/ddear_doubles_below_datree", "⚠️", func(f figureSet) bool {
		dd := f.means("5", SystemDDEAR)
		return growth(dd) >= 2 && everywhere(dd, f.means("5", SystemDaTree), less)
	}},

	// Figure 6: delay vs faulty nodes.
	{"fig6/refer_least_delay", "✅", func(f figureSet) bool { return f.lowest("6", SystemREFER) }},
	{"fig6/refer_ko_flat", "✅", func(f figureSet) bool {
		return growth(f.means("6", SystemREFER)) <= 1.2 && growth(f.means("6", SystemKautzOverlay)) <= 1.2
	}},
	{"fig6/ko_3x_refer", "✅", func(f figureSet) bool {
		return everywhere(f.means("6", SystemREFER), f.means("6", SystemKautzOverlay),
			func(r, ko float64) bool { return ko >= 3*r })
	}},
	{"fig6/ddear_below_datree", "✅", func(f figureSet) bool {
		return everywhere(f.means("6", SystemDDEAR), f.means("6", SystemDaTree), less)
	}},
	{"fig6/datree_crosses_above_ko", "⚠️", func(f figureSet) bool {
		dt, ko := f.means("6", SystemDaTree), f.means("6", SystemKautzOverlay)
		return dt[0] < ko[0] && dt[len(dt)-1] > ko[len(ko)-1]
	}},

	// Figure 7: QoS throughput vs faulty nodes.
	{"fig7/all_decrease", "✅", func(f figureSet) bool {
		for _, s := range f["7"].Series {
			if growth(s.Means()) >= 1 {
				return false
			}
		}
		return true
	}},
	{"fig7/refer_degrades_slowest", "⚠️", func(f figureSet) bool {
		refer := growth(f.means("7", SystemREFER))
		for _, sys := range []string{SystemDaTree, SystemDDEAR, SystemKautzOverlay} {
			if growth(f.means("7", sys)) >= refer {
				return false
			}
		}
		return true
	}},
	{"fig7/ddear_above_datree", "❌", func(f figureSet) bool {
		return everywhere(f.means("7", SystemDaTree), f.means("7", SystemDDEAR), less)
	}},
	{"fig7/ko_lowest", "⚠️", func(f figureSet) bool { return f.lowest("7", SystemKautzOverlay) }},

	// Figure 8: delay vs network size.
	{"fig8/refer_flattest_lowest", "✅", func(f figureSet) bool {
		refer := growth(f.means("8", SystemREFER))
		for _, sys := range []string{SystemDaTree, SystemDDEAR, SystemKautzOverlay} {
			if growth(f.means("8", sys)) <= refer {
				return false
			}
		}
		return f.lowest("8", SystemREFER)
	}},
	{"fig8/ddear_moderate_increase", "✅", func(f figureSet) bool {
		g := growth(f.means("8", SystemDDEAR))
		return g >= 1.2 && g <= 2.5
	}},
	{"fig8/datree_sharp_increase", "✅", func(f figureSet) bool { return growth(f.means("8", SystemDaTree)) >= 1.5 }},
	{"fig8/ko_sharp_increase", "⚠️", func(f figureSet) bool { return growth(f.means("8", SystemKautzOverlay)) >= 1.5 }},
	{"fig8/datree_near_refer_at_100", "❌", func(f figureSet) bool {
		return f.means("8", SystemDaTree)[0] <= 1.5*f.means("8", SystemREFER)[0]
	}},

	// Figure 9: communication energy vs network size.
	{"fig9/refer_marginal_others_rapid", "⚠️", func(f figureSet) bool {
		refer := growth(f.means("9", SystemREFER))
		for _, sys := range []string{SystemDaTree, SystemDDEAR, SystemKautzOverlay} {
			if growth(f.means("9", sys)) < 2*refer {
				return false
			}
		}
		return true
	}},
	{"fig9/datree_most", "✅", func(f figureSet) bool {
		dt := f.means("9", SystemDaTree)
		return everywhere(f.means("9", SystemDDEAR), dt, less) && everywhere(f.means("9", SystemKautzOverlay), dt, less)
	}},
	{"fig9/order_DaTree>KO>DDEAR>REFER", "⚠️", func(f figureSet) bool {
		return everywhere(f.means("9", SystemREFER), f.means("9", SystemDDEAR), less) &&
			everywhere(f.means("9", SystemDDEAR), f.means("9", SystemKautzOverlay), less) &&
			everywhere(f.means("9", SystemKautzOverlay), f.means("9", SystemDaTree), less)
	}},

	// Figure 10: topology-construction energy vs network size.
	{"fig10/ko_3x_every_other", "✅", func(f figureSet) bool {
		ko := f.means("10", SystemKautzOverlay)
		for _, sys := range []string{SystemREFER, SystemDaTree, SystemDDEAR} {
			if !everywhere(f.means("10", sys), ko, func(x, k float64) bool { return k >= 3*x }) {
				return false
			}
		}
		return true
	}},
	{"fig10/refer_above_ddear", "✅", func(f figureSet) bool {
		return everywhere(f.means("10", SystemDDEAR), f.means("10", SystemREFER), less)
	}},
	{"fig10/datree_least", "✅", func(f figureSet) bool { return f.lowest("10", SystemDaTree) }},

	// Figure 11: total energy vs network size.
	{"fig11/refer_lowest", "❌", func(f figureSet) bool { return f.lowest("11", SystemREFER) }},
	{"fig11/construction_under_1pct_of_comm", "⚠️", func(f figureSet) bool {
		for _, s := range f["10"].Series {
			if !everywhere(s.Means(), f.means("9", s.System), func(c, comm float64) bool { return c <= 0.01*comm }) {
				return false
			}
		}
		return true
	}},
}

// claimSeeds is how many seeds TestPaperClaims grades each figure on.
const claimSeeds = 10

// embeddableSeeds returns the first n seeds whose smallest population-grid
// deployment (100 sensors) REFER can embed its cells in, and the seeds
// skipped on the way. A deployment that sparse is at REFER's density
// threshold (EXPERIMENTS.md §E1/E2), and a build failure stops the whole
// population sweep.
func embeddableSeeds(t *testing.T, n int) (seeds, skipped []int64) {
	for seed := int64(1); len(seeds) < n; seed++ {
		cfg := populationConfig(Options{}, 100, seed)
		cfg.System, cfg.Warmup, cfg.Duration = SystemREFER, time.Second, time.Second
		switch _, err := Run(cfg); {
		case errors.Is(err, ErrBuild):
			skipped = append(skipped, seed)
		case err != nil:
			t.Fatal(err)
		default:
			seeds = append(seeds, seed)
		}
	}
	return seeds, skipped
}

// TestPaperClaims grades the paper's Figure 4–11 claims over ten seeds at
// the golden quick-pass windows (100 s + 300 s). It is gated with the golden
// CSVs behind REFER_GOLDEN_CSV=1.
func TestPaperClaims(t *testing.T) {
	if os.Getenv("REFER_GOLDEN_CSV") == "" {
		t.Skip("set REFER_GOLDEN_CSV=1 to grade the paper's claims over ten seeds")
	}
	var seeds []int64
	for seed := int64(1); seed <= claimSeeds; seed++ {
		seeds = append(seeds, seed)
	}
	popSeeds, skipped := embeddableSeeds(t, claimSeeds)
	t.Logf("population grid on seeds %v; REFER cannot embed 100 sensors on seeds %v", popSeeds, skipped)
	figs := figureSet{}
	for _, g := range []struct {
		ids   []string
		seeds []int64
	}{{[]string{"4", "5", "6", "7"}, seeds}, {[]string{"8", "9", "10", "11"}, popSeeds}} {
		o := Options{Seeds: g.seeds, Warmup: 100 * time.Second, Duration: 300 * time.Second}
		if err := BuildFigures(context.Background(), g.ids, o, func(f Figure) error {
			figs[f.ID] = f
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range paperClaims {
		holds := c.holds(figs)
		t.Logf("%-46s %s holds=%v", c.name, c.grade, holds)
		fig := strings.TrimPrefix(c.name[:strings.Index(c.name, "/")], "fig")
		switch {
		case c.grade == "✅" && !holds:
			t.Errorf("%s is graded ✅ but fails:\n%s", c.name, figs[fig].Table())
		case c.grade != "✅" && holds:
			t.Errorf("%s is a known deviation (%s) but holds: regrade it in EXPERIMENTS.md and here\n%s", c.name, c.grade, figs[fig].Table())
		}
	}
}

// TestPaperClaimsMatchScorecard requires EXPERIMENTS.md's per-figure claim
// tables to name exactly the claims paperClaims grades, in order and with
// the same grade.
func TestPaperClaimsMatchScorecard(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\|.*\\(`(fig[0-9]+/[^`]+)`\\) \\| (✅|⚠️|❌)")
	var got []string
	for _, line := range strings.Split(string(doc), "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			got = append(got, m[1]+" "+m[2])
		}
	}
	var want []string
	for _, c := range paperClaims {
		want = append(want, c.name+" "+c.grade)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("EXPERIMENTS.md grades\n%s\npaperClaims grades\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
