package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// sweep runs the tower family and returns N values plus the measured
// metric series for the complexity experiments E9-E11.
func sweep(t *testing.T, ns []int) (xs []float64, dist, msgs, hops []float64) {
	t.Helper()
	scs, err := scenario.TowerSweep(ns)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scs {
		res, err := core.NewEngine(rules.StandardLibrary(), core.WithSeed(1)).Run(context.Background(), s.Surface, s.Config())
		if err != nil || !res.Success {
			t.Fatalf("%s: %v err=%v", s.Name, res, err)
		}
		xs = append(xs, float64(res.Blocks))
		dist = append(dist, float64(res.Counters.DistanceComputations))
		msgs = append(msgs, float64(res.MessagesSent))
		hops = append(hops, float64(res.Hops))
	}
	return xs, dist, msgs, hops
}

// TestComplexityRemarks measures the growth orders of the three metrics the
// paper bounds and checks the measured log-log slopes respect them:
//
//	Remark 2: distance computations = O(N^3)
//	Remark 3: messages             = O(N^3)
//	Remark 4: block hops           = O(N^2)
//
// The tower family couples N and the path length (d ~ N), the regime the
// remarks address. Slopes must also be superlinear — the metrics genuinely
// grow — so the test brackets each exponent. The fit runs over N = 32-128,
// where the constant terms have died out and the slopes read 3.02, 3.02 and
// 1.98, so the caps guard the paper's orders with a small margin.
func TestComplexityRemarks(t *testing.T) {
	ns := []int{32, 48, 64, 96, 128}
	cubicCap, quadCap := 3.10, 2.05
	if testing.Short() {
		// Small-N sweeps overstate the slope (constant terms still visible);
		// keep the quick mode but widen the envelope accordingly.
		ns = []int{8, 12, 16}
		cubicCap, quadCap = 3.5, 2.4
	}
	xs, dist, msgs, hops := sweep(t, ns)

	sDist := stats.LogLogSlope(xs, dist)
	if sDist > cubicCap || sDist < 1.0 {
		t.Errorf("Remark 2: distance-computation slope %.2f outside (1.0, %.2f]", sDist, cubicCap)
	}
	sMsgs := stats.LogLogSlope(xs, msgs)
	if sMsgs > cubicCap || sMsgs < 1.0 {
		t.Errorf("Remark 3: message slope %.2f outside (1.0, %.2f]", sMsgs, cubicCap)
	}
	sHops := stats.LogLogSlope(xs, hops)
	if sHops > quadCap || sHops < 0.8 {
		t.Errorf("Remark 4: hop slope %.2f outside (0.8, %.2f]", sHops, quadCap)
	}
	t.Logf("measured orders: dist-comps N^%.2f, messages N^%.2f, hops N^%.2f", sDist, sMsgs, sHops)
}

// TestComplexityAbsoluteBounds: per-instance sanity against the closed-form
// bounds with small constants (the remarks are asymptotic; the constants
// here are loose but finite).
func TestComplexityAbsoluteBounds(t *testing.T) {
	xs, dist, msgs, hops := sweep(t, []int{8, 16})
	for i, n := range xs {
		n3 := n * n * n
		n2 := n * n
		if dist[i] > 40*n3 {
			t.Errorf("N=%v: %v distance computations exceed 40*N^3", n, dist[i])
		}
		if msgs[i] > 40*n3 {
			t.Errorf("N=%v: %v messages exceed 40*N^3", n, msgs[i])
		}
		if hops[i] > 20*n2 {
			t.Errorf("N=%v: %v hops exceed 20*N^2", n, hops[i])
		}
	}
}
