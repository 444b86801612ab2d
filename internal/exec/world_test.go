package exec_test

import (
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/rules"
	"repro/internal/scenario"
)

// worldFixtures are the initial surfaces the World's motion contract is
// checked on: fig10, and slope top=8, whose step corners are all mobile at
// once.
func worldFixtures(t *testing.T) []*scenario.Scenario {
	t.Helper()
	fig10, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	slope, err := scenario.SlopeStaircase(8, 14)
	if err != nil {
		t.Fatal(err)
	}
	return []*scenario.Scenario{fig10, slope}
}

var connected = lattice.Constraints{RequireConnectivity: true}

// TestWorldMoveNotifies applies every application ApplicationsFor offers
// each block of each fixture, each to a fresh clone, and checks the two
// lists Move returns against the surface: the displaced blocks are the
// blocks at the rule's destinations, in move order, and the observers are
// every other block within the sensing radius of a vacated or filled cell,
// found by a brute-force scan, in ascending id order. Before and after each
// motion the World's Neighbor Tables and port rule must agree with the
// surface (checkTables).
func TestWorldMoveNotifies(t *testing.T) {
	lib := rules.StandardLibrary()
	for _, s := range worldFixtures(t) {
		apps := 0
		for _, id := range s.Surface.Blocks() {
			offered, err := s.Surface.ApplicationsFor(id, lib, connected)
			if err != nil {
				t.Fatal(err)
			}
			for _, app := range offered {
				apps++
				checkMove(t, s, lib, id, app)
			}
		}
		if apps == 0 {
			t.Errorf("%s: no block has an application", s.Name)
		}
	}
}

func checkMove(t *testing.T, s *scenario.Scenario, lib *rules.Library, id lattice.BlockID, app rules.Application) {
	t.Helper()
	surf := s.Surface.Clone()
	before := map[lattice.BlockID]geom.Vec{}
	for _, b := range surf.Blocks() {
		before[b], _ = surf.PositionOf(b)
	}
	applied := 0
	w, err := exec.NewWorld(surf, lib, s.Input, s.Output, connected, func(lattice.ApplyResult) { applied++ })
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, w, surf, s.Name+": before "+app.String())
	moved, observers, err := w.Move(id, app)
	if err != nil {
		t.Fatalf("%s: block %d: %s: %v", s.Name, id, app, err)
	}
	checkTables(t, w, surf, s.Name+": after "+app.String())
	if applied != 1 {
		t.Errorf("%s: %s: onApply ran %d times", s.Name, app, applied)
	}

	var want []exec.Displacement
	changed := map[geom.Vec]bool{}
	for _, m := range app.Rule.Moves {
		from, to := app.Anchor.Add(m.From), app.Anchor.Add(m.To)
		changed[from], changed[to] = true, true
		if b, ok := surf.BlockAt(to); ok {
			want = append(want, exec.Displacement{ID: b, From: from, To: to})
		}
	}
	if !slices.Equal(moved, want) {
		t.Errorf("%s: %s: displaced %v, want %v", s.Name, app, moved, want)
	}
	for _, d := range moved {
		if !changed[before[d.ID]] {
			t.Errorf("%s: %s: displaced block %d started at %v, not a rule cell", s.Name, app, d.ID, before[d.ID])
		}
	}

	var brute []lattice.BlockID
	for _, b := range surf.Blocks() { // ascending
		if slices.ContainsFunc(moved, func(d exec.Displacement) bool { return d.ID == b }) {
			continue
		}
		p, _ := surf.PositionOf(b)
		for c := range changed {
			if p.Chebyshev(c) <= w.SensingRadius() {
				brute = append(brute, b)
				break
			}
		}
	}
	if !slices.Equal(observers, brute) {
		t.Errorf("%s: %s: observers %v, brute-force scan %v", s.Name, app, observers, brute)
	}
}

// checkTables checks the World's Neighbor Tables and port rule against the
// surface: every block's table is the surface's, Port accepts exactly the
// pairs geom.DirOf finds laterally adjacent among the blocks within
// Chebyshev distance 2 of each other, and it refuses an id off the surface
// and lattice.None, which marks an empty port in a table.
func checkTables(t *testing.T, w *exec.World, surf *lattice.Surface, what string) {
	t.Helper()
	const offSurface = lattice.BlockID(1 << 20)
	for _, a := range surf.Blocks() {
		want, err := surf.Neighbors(a)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Neighbors(a); got != want {
			t.Errorf("%s: block %d: World Neighbor Table %v, surface %v", what, a, got, want)
		}
		pa, _ := surf.PositionOf(a)
		for dy := -2; dy <= 2; dy++ {
			for dx := -2; dx <= 2; dx++ {
				pb := pa.Add(geom.V(dx, dy))
				b, ok := surf.BlockAt(pb)
				if !ok {
					continue
				}
				_, adjacent := geom.DirOf(pa, pb)
				if err := w.Port(a, b); (err == nil) != adjacent {
					t.Errorf("%s: Port(%d at %v, %d at %v) = %v, adjacent %t", what, a, pa, b, pb, err, adjacent)
				}
			}
		}
		if w.Port(a, offSurface) == nil || w.Port(offSurface, a) == nil || w.Port(a, lattice.None) == nil {
			t.Errorf("%s: a port between block %d and an id off the surface was accepted", what, a)
		}
	}
}

// TestWorldRefusals: a block that is not a mover of an application cannot
// execute it, and the refusal leaves the surface as it was; ports join only
// laterally adjacent blocks on the surface; and a window read one cell past
// the sensing window panics.
func TestWorldRefusals(t *testing.T) {
	lib := rules.StandardLibrary()
	s := worldFixtures(t)[0]
	surf := s.Surface
	w, err := exec.NewWorld(surf, lib, s.Input, s.Output, connected, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Find an application some block offers, and a block that is not one
	// of its movers.
	var app rules.Application
	var mover, other lattice.BlockID
	for _, id := range surf.Blocks() {
		if offered, _ := surf.ApplicationsFor(id, lib, connected); len(offered) > 0 {
			app, mover = offered[0], id
			break
		}
	}
	if mover == lattice.None {
		t.Fatal("no block has an application")
	}
	for _, id := range surf.Blocks() {
		if p, _ := surf.PositionOf(id); !slices.Contains(app.Movers(), p) {
			other = id
			break
		}
	}
	positions := surf.Positions()
	hops, apps := surf.Hops(), surf.Applications()
	if _, _, err := w.Move(other, app); err == nil {
		t.Errorf("block %d is not a mover of %s, but Move accepted it", other, app)
	}
	if !slices.Equal(surf.Positions(), positions) || surf.Hops() != hops || surf.Applications() != apps {
		t.Error("a refused Move changed the surface")
	}

	nt := w.Neighbors(mover)
	for _, nb := range nt {
		if nb != lattice.None {
			if err := w.Port(mover, nb); err != nil {
				t.Errorf("port between neighbours %d and %d: %v", mover, nb, err)
			}
		}
	}
	for _, id := range surf.Blocks() {
		if id != mover && !slices.Contains(nt[:], id) {
			if err := w.Port(mover, id); err == nil {
				t.Errorf("port between non-adjacent blocks %d and %d accepted", mover, id)
			}
		}
	}
	const offSurface = lattice.BlockID(1 << 20)
	if err := w.Port(mover, offSurface); err == nil {
		t.Error("port to a block off the surface accepted")
	}
	if err := w.Port(offSurface, mover); err == nil {
		t.Error("port from a block off the surface accepted")
	}

	p, r := w.Position(mover), w.SensingRadius()
	w.SenseWindow(mover, p.Add(geom.V(r, 0)), 0)
	for _, c := range []struct {
		anchor geom.Vec
		radius int
	}{
		{p.Add(geom.V(r+1, 0)), 0},
		{p.Add(geom.V(0, -r)), 1},
		{p, r + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SenseWindow(%v, %d) from %v reaches past radius %d but did not panic", c.anchor, c.radius, p, r)
				}
			}()
			w.SenseWindow(mover, c.anchor, c.radius)
		}()
	}
}
