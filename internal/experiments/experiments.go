// Package experiments regenerates every table and figure of the paper's
// evaluation (All is the per-experiment index, and sbbench -exp all prints
// the measured-vs-paper record). Each experiment renders a
// plain-text report; cmd/sbbench exposes them on the command line and the
// repository-level benchmarks re-run their cores under testing.B.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/election"
	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/matrix"
	"repro/internal/rules"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Experiment is a named, runnable artefact regenerator.
type Experiment struct {
	ID    string
	Paper string // which table/figure/remark of the paper it regenerates
	Run   func() (string, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I (event codes)", TableI},
		{"table2", "Table II (validation truth table)", TableII},
		{"fig3", "Fig. 3 / eqs. (1)-(3): east sliding validation", Fig3},
		{"fig4", "Fig. 4: vertical symmetry of east sliding", Fig4},
		{"fig5", "Fig. 5: situations where the motion is invalid", Fig5},
		{"fig6", "Fig. 6 / eqs. (4)-(5): east carrying", Fig6},
		{"fig7", "Fig. 7: XML capability encoding", Fig7},
		{"fig10", "Figs. 10-11: the 12-block reconfiguration", Fig10},
		{"remark2", "Remark 2: O(N^3) distance computations", Remark2},
		{"remark3", "Remark 3: O(N^3) messages", Remark3},
		{"remark4", "Remark 4: O(N^2) block hops", Remark4},
		{"lemma1", "Lemma 1: finite-time solvability", Lemma1},
		{"visiblesim", "§V-E: simulator event throughput", VisibleSim},
		{"baseline", "§I-II: constrained vs free motion ([14])", Baseline},
		{"ablate", "ablations: every mechanism is load-bearing", Ablations},
		{"faults", "§VI future work: sensor faults and block crashes", Faults},
		{"envelope", "solvable envelope of the greedy election", Envelope},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// TableI regenerates Table I.
func TableI() (string, error) {
	t := stats.NewTable("Table I — codes associated to the different events",
		"Code", "Context", "Case")
	for c := event.Code(0); c < event.NumCodes; c++ {
		t.AddRow(int(c), c.Context(), c.Case())
	}
	return t.String(), nil
}

// TableII regenerates Table II.
func TableII() (string, error) {
	t := stats.NewTable("Table II — truth table for validation of block motion",
		"Presence\\Motion", "0", "1", "2", "3", "4", "5")
	tt := event.TruthTable()
	for p := 0; p < 2; p++ {
		row := []any{p}
		for m := 0; m < event.NumCodes; m++ {
			row = append(row, tt[p][m])
		}
		t.AddRow(row...)
	}
	return t.String(), nil
}

// Fig3 replays eqs. (1)-(3): overlapping the east-sliding Motion Matrix
// with the example Presence Matrix yields the all-ones matrix.
func Fig3() (string, error) {
	mm := rules.EastSliding().MM
	mp := matrix.MustPresence([][]int{{0, 0, 0}, {1, 1, 0}, {1, 1, 1}})
	ok, res := matrix.OverlapResult(mm, mp)
	var b strings.Builder
	fmt.Fprintf(&b, "MM (eq. 1):\n%s\nMP (eq. 2):\n%s\nMM⊗MP (eq. 3):\n", mm, mp)
	for _, row := range res {
		for i, v := range row {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nmotion valid: %t (paper: valid)\n", ok)
	if !ok {
		return b.String(), fmt.Errorf("fig3: east sliding should validate")
	}
	return b.String(), nil
}

// Fig4 derives the vertical symmetry of the east-sliding rule.
func Fig4() (string, error) {
	base := rules.EastSliding()
	mirrored := base.Transform(geom.MirrorY, "east1.mirror-y")
	var b strings.Builder
	fmt.Fprintf(&b, "east1:\n%s\nvertical symmetry (mirror-y):\n%s", base.MM, mirrored.MM)
	fmt.Fprintf(&b, "mover still goes east: %v\n", mirrored.Moves[0])
	if err := mirrored.Validate(); err != nil {
		return b.String(), err
	}
	return b.String(), nil
}

// Fig5 shows presence configurations where east sliding is invalid.
func Fig5() (string, error) {
	mm := rules.EastSliding().MM
	cases := []struct {
		name string
		rows [][]int
	}{
		{"destination occupied", [][]int{{0, 0, 0}, {1, 1, 1}, {1, 1, 1}}},
		{"missing support under destination", [][]int{{0, 0, 0}, {1, 1, 0}, {1, 1, 0}}},
		{"north not free", [][]int{{0, 1, 0}, {1, 1, 0}, {1, 1, 1}}},
	}
	var b strings.Builder
	for _, c := range cases {
		mp := matrix.MustPresence(c.rows)
		ok := matrix.Overlap(mm, mp)
		fmt.Fprintf(&b, "%s:\n%svalid: %t (paper: invalid)\n\n", c.name, mp, ok)
		if ok {
			return b.String(), fmt.Errorf("fig5: %s should be invalid", c.name)
		}
	}
	return b.String(), nil
}

// Fig6 replays the east-carrying rule of eqs. (4)-(5).
func Fig6() (string, error) {
	carry := rules.EastCarrying()
	mp := matrix.MustPresence([][]int{{0, 0, 0}, {1, 1, 0}, {1, 1, 0}})
	ok := carry.AppliesTo(mp)
	var b strings.Builder
	fmt.Fprintf(&b, "MM (eq. 4):\n%s\nMP (eq. 5):\n%s\nvalid: %t (paper: valid)\n",
		carry.MM, mp, ok)
	fmt.Fprintf(&b, "simultaneous moves: %v, %v\n", carry.Moves[0], carry.Moves[1])
	if !ok {
		return b.String(), fmt.Errorf("fig6: east carrying should validate")
	}
	return b.String(), nil
}

// Fig7 round-trips the paper's XML extract and reports the standard
// library's serialisation.
func Fig7() (string, error) {
	fromPaper, err := rules.DecodeXML([]byte(rules.PaperXMLExtract))
	if err != nil {
		return "", fmt.Errorf("fig7: parsing the paper extract: %w", err)
	}
	std := rules.StandardLibrary()
	data, err := rules.EncodeXML(std)
	if err != nil {
		return "", err
	}
	back, err := rules.DecodeXML(data)
	if err != nil {
		return "", fmt.Errorf("fig7: round trip: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "paper extract: %d capabilities (east1, carry_east1) parsed and validated\n",
		fromPaper.Len())
	fmt.Fprintf(&b, "standard library: %d capabilities -> %d bytes of XML -> %d capabilities\n",
		std.Len(), len(data), back.Len())
	names := std.Names()
	fmt.Fprintf(&b, "capabilities: %s\n", strings.Join(names, ", "))
	return b.String(), nil
}

// Fig10 runs the §V-D reconfiguration and reports measured-vs-paper.
func Fig10() (string, error) {
	s, err := scenario.Fig10()
	if err != nil {
		return "", err
	}
	initial := trace.Render(s.Surface, s.Input, s.Output)
	// One observer stream, two consumers: the storyboard recorder and the
	// session summary.
	rec := trace.NewRecorder(s.Surface, s.Input, s.Output, false)
	sum := &stats.SessionSummary{}
	eng := core.NewEngine(rules.StandardLibrary(), core.WithObserver(core.MultiObserver(rec, sum)))
	res, err := eng.Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "initial configuration:\n%s\n", initial)
	fmt.Fprintf(&b, "final configuration:\n%s\n", trace.Render(s.Surface, s.Input, s.Output))
	t := stats.NewTable("Figs. 10-11 — reconfiguration example", "metric", "paper", "measured")
	t.AddRow("blocks", 12, res.Blocks)
	t.AddRow("shortest path cells", 11, s.Input.Manhattan(s.Output)+1)
	t.AddRow("block moves", 55, res.Hops)
	t.AddRow("carry steps", "several", rec.CarrySteps())
	t.AddRow("path built", true, res.PathBuilt)
	t.AddRow("elections", "-", res.Rounds)
	t.AddRow("messages", "-", res.MessagesSent)
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nsession stream: %s\n", sum)
	b.WriteString("note: the paper's exact initial layout is unpublished; the measured move\n" +
		"count shares the paper's order of magnitude (tens of moves); scenario.Fig10\n" +
		"documents the substituted layout.\n")
	if !res.Success || !res.PathBuilt {
		return b.String(), fmt.Errorf("fig10: reconfiguration failed: %v", res)
	}
	return b.String(), nil
}

// SweepResult is one point of the complexity sweeps.
type SweepResult struct {
	N        int
	Dist     int64
	Messages uint64
	Hops     int
	Rounds   int
}

// Sweep runs the tower family at the given sizes (shared by Remarks 2-4),
// one Engine.Run per point, in input order.
func Sweep(ns []int) ([]SweepResult, error) {
	scs, err := scenario.TowerSweep(ns)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(rules.StandardLibrary())
	var out []SweepResult
	for _, s := range scs {
		res, err := eng.Run(context.Background(), s.Surface, s.Config())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		if !res.Success {
			return nil, fmt.Errorf("%s: reconfiguration failed: %v", s.Name, res)
		}
		out = append(out, SweepResult{
			N:        res.Blocks,
			Dist:     res.Counters.DistanceComputations,
			Messages: res.MessagesSent,
			Hops:     res.Hops,
			Rounds:   res.Rounds,
		})
	}
	return out, nil
}

// DefaultSweepSizes is the N range of the complexity experiments.
var DefaultSweepSizes = []int{8, 12, 16, 24, 32, 48, 64, 96, 128}

// defaultSweep runs Sweep(DefaultSweepSizes) once per process. The sweep is
// deterministic, and Remarks 2-4 read three columns of its rows.
var defaultSweep = sync.OnceValues(func() ([]SweepResult, error) {
	return Sweep(DefaultSweepSizes)
})

// fitFrom is the smallest N of a growth-order fit: below it the constant
// terms still steepen the log-log curve, which converges to the paper's
// orders as N grows.
const fitFrom = 32

func remark(metric string, bound string, wantSlope float64,
	pick func(SweepResult) float64) (string, error) {
	rs, err := defaultSweep()
	if err != nil {
		return "", err
	}
	t := stats.NewTable(fmt.Sprintf("%s — paper bound %s", metric, bound),
		"N", metric, metric+"/bound")
	var xs, ys []float64
	for _, r := range rs {
		v := pick(r)
		var norm float64
		switch bound {
		case "O(N^3)":
			norm = v / float64(r.N*r.N*r.N)
		case "O(N^2)":
			norm = v / float64(r.N*r.N)
		}
		t.AddRow(r.N, int64(v), norm)
		if r.N >= fitFrom {
			xs = append(xs, float64(r.N))
			ys = append(ys, v)
		}
	}
	slope := stats.LogLogSlope(xs, ys)
	// The local slope between the two largest sizes shows where the fit
	// is heading.
	n := len(xs)
	top := stats.LogLogSlope(xs[n-2:], ys[n-2:])
	out := t.String() + fmt.Sprintf("measured growth order: N^%.2f fitted over N = %d-%d, N^%.2f from N = %d to %d (bound %s)\n",
		slope, int(xs[0]), int(xs[n-1]), top, int(xs[n-2]), int(xs[n-1]), bound)
	if slope > wantSlope {
		return out, fmt.Errorf("measured order N^%.2f exceeds the paper's %s", slope, bound)
	}
	return out, nil
}

// Remark2 regenerates the distance-computation complexity experiment.
func Remark2() (string, error) {
	return remark("distance computations", "O(N^3)", 3.25,
		func(r SweepResult) float64 { return float64(r.Dist) })
}

// Remark3 regenerates the message-complexity experiment.
func Remark3() (string, error) {
	return remark("messages", "O(N^3)", 3.25,
		func(r SweepResult) float64 { return float64(r.Messages) })
}

// Remark4 regenerates the block-hop complexity experiment.
func Remark4() (string, error) {
	return remark("block hops", "O(N^2)", 2.25,
		func(r SweepResult) float64 { return float64(r.Hops) })
}

// Lemma1 runs the randomized solvability experiment.
func Lemma1() (string, error) {
	const seeds = 40
	t := stats.NewTable("Lemma 1 — randomized instances (seeded staircase family)",
		"seeds", "solved", "path built", "mean rounds", "mean hops")
	solved, built := 0, 0
	var rounds, hops []float64
	lib := rules.StandardLibrary()
	for seed := int64(1); seed <= seeds; seed++ {
		s, err := scenario.RandomStaircase(seed)
		if err != nil {
			return "", err
		}
		res, err := core.NewEngine(lib, core.WithSeed(seed)).
			Run(context.Background(), s.Surface, s.Config())
		if err != nil {
			return "", fmt.Errorf("seed-%d: %w", seed, err)
		}
		if res.Success {
			solved++
		}
		if res.PathBuilt {
			built++
		}
		rounds = append(rounds, float64(res.Rounds))
		hops = append(hops, float64(res.Hops))
	}
	t.AddRow(seeds, solved, built,
		stats.Summarize(rounds).Mean, stats.Summarize(hops).Mean)
	out := t.String()
	if solved != seeds || built != seeds {
		return out, fmt.Errorf("lemma1: %d/%d solved, %d/%d built", solved, seeds, built, seeds)
	}
	return out + "every instance solved in finite time with the path built (Lemma 1)\n", nil
}

// VisibleSim measures the DES core's event throughput, the §V-E claim
// (VisibleSim: ~650k events/s with 2M modules on a laptop). Each module
// perpetually reschedules a local timer event, the lightest event mix, so
// the number measures the event core itself.
func VisibleSim() (string, error) {
	t := stats.NewTable("§V-E — discrete-event core throughput (paper: ~650k events/s @ 2e6 modules)",
		"modules", "events", "events/s")
	for _, modules := range []int{1_000, 10_000, 100_000, 1_000_000, 2_000_000} {
		perModule := 4_000_000 / modules
		if perModule < 2 {
			perModule = 2
		}
		evs, dur := eventStorm(modules, perModule)
		t.AddRow(modules, evs, fmt.Sprintf("%.0f", float64(evs)/dur.Seconds()))
	}
	return t.String(), nil
}

// stormTimer is a typed self-rescheduling module timer: the scheduler's
// event ring carries it with no per-event closure allocation.
type stormTimer struct {
	s         *sim.Scheduler
	id        int
	remaining int
}

// Fire implements sim.Event.
func (t *stormTimer) Fire() {
	if t.remaining <= 0 {
		return
	}
	t.remaining--
	t.s.Schedule(sim.Time(1+t.id%7), t)
}

// eventStorm schedules `modules` self-rescheduling timers for `rounds`
// firings each and measures the wall time to drain them.
func eventStorm(modules, rounds int) (uint64, time.Duration) {
	s := sim.NewScheduler(1)
	timers := make([]stormTimer, modules)
	for i := 0; i < modules; i++ {
		timers[i] = stormTimer{s: s, id: i, remaining: rounds}
		s.Schedule(sim.Time(i%13), &timers[i])
	}
	start := time.Now()
	n := s.Run(0)
	return n, time.Since(start)
}

// Baseline compares the constrained system against free motion and the
// assignment oracle (experiment E14).
func Baseline() (string, error) {
	t := stats.NewTable("constrained (this paper) vs free motion [14] vs oracle",
		"instance", "N", "constrained hops", "free hops", "oracle hops",
		"constrained rounds", "free rounds")
	type inst struct {
		name string
		mk   func() (*scenario.Scenario, error)
	}
	insts := []inst{
		{"fig10", scenario.Fig10},
		{"tower-16", func() (*scenario.Scenario, error) {
			scs, err := scenario.TowerSweep([]int{16})
			if err != nil {
				return nil, err
			}
			return scs[0], nil
		}},
		{"stair-5-4-2", func() (*scenario.Scenario, error) {
			return scenario.Staircase("stair-5-4-2", []int{5, 4, 2}, 9)
		}},
	}
	for _, in := range insts {
		sc, err := in.mk()
		if err != nil {
			return "", err
		}
		sf := sc.Clone()
		cons, err := core.NewEngine(rules.StandardLibrary()).Run(context.Background(), sc.Surface, sc.Config())
		if err != nil {
			return "", fmt.Errorf("%s constrained: %w", in.name, err)
		}
		free, err := baseline.RunFreeMotion(sf.Surface, sf.Input, sf.Output)
		if err != nil {
			return "", fmt.Errorf("%s free: %w", in.name, err)
		}
		t.AddRow(in.name, cons.Blocks, cons.Hops, free.Hops, free.OracleHops,
			cons.Rounds, free.Rounds)
		if free.Hops > cons.Hops {
			return t.String(), fmt.Errorf("%s: free motion needed more hops than constrained", in.name)
		}
	}
	return t.String() + "direction check: constrained >= free >= oracle everywhere (the paper's\n" +
		"\"far more constrained\" setting costs real moves)\n", nil
}

// Ablations runs the A1/A2 mechanism knockouts on Fig. 10.
func Ablations() (string, error) {
	t := stats.NewTable("Fig. 10 under mechanism knockouts (every row should fail except default)",
		"configuration", "success", "rounds", "hops")
	type variant struct {
		name string
		lib  *rules.Library
		mod  func(*core.Config)
		want bool
	}
	variants := []variant{
		{"default", rules.StandardLibrary(), nil, true},
		{"tie-break lowest-id", rules.StandardLibrary(),
			func(c *core.Config) { c.TieBreak = election.TieLowestID }, true},
		{"A1: no carrying rules", rules.SlidingOnlyLibrary(),
			func(c *core.Config) { c.MaxRounds = 400 }, false},
		{"A2: literal eq. (8)", rules.StandardLibrary(),
			func(c *core.Config) { c.StrictEq8 = true }, false},
		{"no escape tier", rules.StandardLibrary(),
			func(c *core.Config) { c.AllowRetreat = false }, false},
		{"no blocking veto", rules.StandardLibrary(),
			func(c *core.Config) { c.Veto = core.VetoNone }, false},
		{"line-rule veto only", rules.StandardLibrary(),
			func(c *core.Config) { c.Veto = core.VetoLine }, false},
	}
	for _, v := range variants {
		s, err := scenario.Fig10()
		if err != nil {
			return "", err
		}
		cfg := s.Config()
		if v.mod != nil {
			v.mod(&cfg)
		}
		res, err := core.NewEngine(v.lib).Run(context.Background(), s.Surface, cfg)
		if err != nil {
			return "", fmt.Errorf("%s: %w", v.name, err)
		}
		t.AddRow(v.name, res.Success, res.Rounds, res.Hops)
		if res.Success != v.want {
			return t.String(), fmt.Errorf("%s: success=%t, want %t", v.name, res.Success, v.want)
		}
	}
	return t.String(), nil
}
