package lattice

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rules"
)

// TestRingTableMatchesDefinition checks ringJoinTable for all 256 ring masks
// and all 16 side masks against the definition, computed another way: the
// named side cells are occupied and reach each other along the 8-cycle of
// the ring through occupied cells only.
func TestRingTableMatchesDefinition(t *testing.T) {
	for r := 0; r < 256; r++ {
		for m := 0; m < 16; m++ {
			want := true
			first := -1
			for j := 0; j < 4; j++ {
				if m>>j&1 == 0 {
					continue
				}
				if r>>(2*j)&1 == 0 {
					want = false
					break
				}
				if first < 0 {
					first = 2 * j
				}
			}
			if want && first >= 0 {
				// Flood the cycle from the first named side through occupied cells.
				reached := 1 << first
				for step := 0; step < 8; step++ {
					for i := 0; i < 8; i++ {
						if reached>>i&1 != 0 {
							for _, nb := range [2]int{(i + 1) % 8, (i + 7) % 8} {
								if r>>nb&1 != 0 {
									reached |= 1 << nb
								}
							}
						}
					}
				}
				for j := 0; j < 4; j++ {
					if m>>j&1 != 0 && reached>>(2*j)&1 == 0 {
						want = false
					}
				}
			}
			if got := ringJoinTable[r]>>m&1 != 0; got != want {
				t.Fatalf("ringJoinTable[%08b] side mask %04b = %t, want %t", r, m, got, want)
			}
		}
	}
}

// TestRingBitsMatchNeighbors8 pins ring bit i to neighbors8's i-th cell, both
// as read off the surface and as indexed by ringBitOf.
func TestRingBitsMatchNeighbors8(t *testing.T) {
	u := geom.V(2, 2)
	for i, v := range neighbors8(u) {
		s := mustSurface(t, 5, 5, v)
		if got := s.ringAround(u, nil, nil); got != 1<<i {
			t.Errorf("ring with only %v occupied = %08b, want bit %d", v, got, i)
		}
		if got := ringBitOf(u, v); got != uint8(i) {
			t.Errorf("ringBitOf(%v, %v) = %d, want %d", u, v, got, i)
		}
	}
	if got := ringBitOf(u, u); got != 8 {
		t.Errorf("ringBitOf of the centre = %d, want 8", got)
	}
}

// maskConnected reports whether the cells of a 4x4 board named by m (bit
// y*4+x) form one 4-connected component; the empty set counts as connected.
func maskConnected(m uint16) bool {
	if m == 0 {
		return true
	}
	seen := m & -m
	for {
		grown := (seen | seen<<1&^0x1111 | seen>>1&^0x8888 | seen<<4 | seen>>4) & m
		if grown == seen {
			return seen == m
		}
		seen = grown
	}
}

// TestRingSoundOn4x4 checks rung 0 exhaustively on a 4x4 board, so ring
// cells beyond every edge and corner are covered: over every connected
// occupancy of at least two blocks, every block u and every empty cell d,
// a ring "yes" for u -> d means the occupancy after the move is connected,
// and a ring "not cut" for u means it stays connected without u. The
// public verdicts, ring first, must equal the oracle everywhere.
func TestRingSoundOn4x4(t *testing.T) {
	cell := func(i int) geom.Vec { return geom.V(i%4, i/4) }
	var keeps, notCut int
	for m := 1; m < 1<<16; m++ {
		occ := uint16(m)
		if bits.OnesCount16(occ) < 2 || !maskConnected(occ) {
			continue
		}
		s, err := NewSurface(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if occ>>i&1 != 0 {
				if _, err := s.Place(cell(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.WarmConnectivity()
		if !s.shconn.conn1 {
			t.Fatalf("occupancy %016b: a rebuild of a connected surface left conn1 off", occ)
		}
		for i := 0; i < 16; i++ {
			if occ>>i&1 == 0 {
				continue
			}
			u := cell(i)
			rest := occ &^ (1 << i)
			cut := !maskConnected(rest)
			if s.ringNotCut(u) {
				notCut++
				if cut {
					t.Fatalf("occupancy %016b: ring says %v is no cut vertex, but it is", occ, u)
				}
			}
			if got := s.IsArticulation(u); got != cut {
				t.Fatalf("occupancy %016b: IsArticulation(%v) = %t, oracle %t", occ, u, got, cut)
			}
			for j := 0; j < 16; j++ {
				if occ>>j&1 != 0 {
					continue
				}
				d := cell(j)
				want := maskConnected(rest | 1<<j)
				if s.ringJoins(u, d, nil, nil) && s.touchesBlock(d, u) {
					keeps++
					if !want {
						t.Fatalf("occupancy %016b: ring keeps %v -> %v, but it disconnects", occ, u, d)
					}
				}
				if got := s.ConnectedAfterDisplacement(u, d); got != want {
					t.Fatalf("occupancy %016b: ConnectedAfterDisplacement(%v, %v) = %t, oracle %t", occ, u, d, got, want)
				}
			}
		}
	}
	if keeps == 0 || notCut == 0 {
		t.Fatalf("the ring never answered (keeps %d, not cut %d)", keeps, notCut)
	}
}

// TestConn1Lifecycle follows the conn1 flag through every operation that
// keeps, restores or clears it, and after each one compares the verdicts
// rung 0 would give (every displacement within two cells, as a move and as
// a one-step wave, and every cut-vertex query) with the oracle, so a flag
// left on over a disconnected surface shows as a wrong "yes".
func TestConn1Lifecycle(t *testing.T) {
	errNo := errors.New("no")
	// A 6x2 slab on an 8x5 surface with a rider on top at (1,2).
	var cells []geom.Vec
	for y := 0; y < 2; y++ {
		for x := 0; x < 6; x++ {
			cells = append(cells, geom.V(x, y))
		}
	}
	s := mustSurface(t, 8, 5, append(cells, geom.V(1, 2))...)
	rider, _ := s.BlockAt(geom.V(1, 2))
	cons := Constraints{RequireConnectivity: true}
	vetoed := Constraints{RequireConnectivity: true, Veto: func(*Surface) error { return errNo }}
	// A veto that rebuilds the cache on the post-move surface before refusing.
	rebuilding := Constraints{RequireConnectivity: true, Veto: func(after *Surface) error {
		after.WarmConnectivity()
		return errNo
	}}

	check := func(t *testing.T, s *Surface, step string, want bool) {
		t.Helper()
		if s.shconn.conn1 != want {
			t.Fatalf("after %s: conn1 = %t, want %t", step, s.shconn.conn1, want)
		}
		for _, u := range s.Positions() {
			if got, want := s.IsArticulation(u), oracleIsArticulation(t, s, u); got != want {
				t.Fatalf("after %s: IsArticulation(%v) = %t, oracle %t", step, u, got, want)
			}
			for dy := -2; dy <= 2; dy++ {
				for dx := -2; dx <= 2; dx++ {
					d := u.Add(geom.V(dx, dy))
					if !s.InBounds(d) || s.Occupied(d) {
						continue
					}
					got := s.ConnectedAfterDisplacement(u, d)
					if want := oracleConnectedAfter(t, s, []geom.Vec{u}, []geom.Vec{d}); got != want {
						t.Fatalf("after %s: ConnectedAfterDisplacement(%v, %v) = %t, oracle %t", step, u, d, got, want)
					}
					wave := []PlannedMove{{From: u, To: d}}
					if got, want := s.ValidateMoveSet(wave), oracleMoveSet(t, s, wave); got != want {
						t.Fatalf("after %s: ValidateMoveSet(%v) = %d, oracle %d", step, wave, got, want)
					}
				}
			}
		}
	}
	mustErr := func(t *testing.T, err, target error) {
		t.Helper()
		if !errors.Is(err, target) {
			t.Fatalf("got %v, want %v", err, target)
		}
	}

	check(t, s, "Place", false)
	s.WarmConnectivity()
	check(t, s, "a rebuild of a connected surface", true)
	if _, err := s.Apply(slideApp(geom.V(1, 2)), cons); err != nil { // rider (1,2) -> (2,2)
		t.Fatal(err)
	}
	check(t, s, "a validated Apply", true)
	mustErr(t, s.Validate(slideApp(geom.V(2, 2)), vetoed), ErrVetoed)
	check(t, s, "a vetoed Validate", true)
	mustErr(t, s.Validate(slideApp(geom.V(2, 2)), rebuilding), ErrVetoed)
	check(t, s, "a vetoed Validate whose veto rebuilt", true)
	if err := s.MoveTeleport(rider, geom.V(3, 2), cons); err != nil {
		t.Fatal(err)
	}
	check(t, s, "a validated MoveTeleport", true)
	mustErr(t, s.MoveTeleport(rider, geom.V(4, 2), vetoed), ErrVetoed)
	check(t, s, "a vetoed MoveTeleport", true)
	mustErr(t, s.MoveTeleport(rider, geom.V(4, 2), rebuilding), ErrVetoed)
	check(t, s, "a vetoed MoveTeleport whose veto rebuilt", true)
	mustErr(t, s.MoveTeleport(rider, geom.V(7, 4), cons), ErrDisconnects)
	check(t, s, "a refused MoveTeleport", true)

	c := s.Clone()
	check(t, c, "Clone", false)
	check(t, s, "cloning it", true)
	if err := s.EnableSharding(2); err != nil {
		t.Fatal(err)
	}
	check(t, s, "EnableSharding", false)

	// Each mutation below that strands a block must clear the flag: the
	// checks would catch a stale "one component" through the ring.
	id, err := s.Place(geom.V(7, 4))
	if err != nil {
		t.Fatal(err)
	}
	check(t, s, "a Place that strands a block", false)
	if err := s.Remove(id); err != nil {
		t.Fatal(err)
	}
	check(t, s, "Remove", false)
	if err := s.PlaceWithID(99, geom.V(7, 4)); err != nil {
		t.Fatal(err)
	}
	check(t, s, "PlaceWithID", false)
	if err := s.Remove(99); err != nil {
		t.Fatal(err)
	}
	s.WarmConnectivity()
	check(t, s, "a rebuild", true)
	if _, err := s.FillRect(geom.RectSpanning(geom.V(7, 3), geom.V(7, 4))); err != nil {
		t.Fatal(err)
	}
	check(t, s, "FillRect", false)
	for _, v := range []geom.Vec{geom.V(7, 3), geom.V(7, 4)} {
		id, _ := s.BlockAt(v)
		if err := s.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	s.WarmConnectivity()
	if _, err := s.Apply(slideApp(geom.V(3, 2)), Constraints{}); err != nil { // rider (3,2) -> (4,2)
		t.Fatal(err)
	}
	check(t, s, "an unconstrained Apply", false)
	if err := s.MoveTeleport(rider, geom.V(7, 4), Constraints{}); err != nil {
		t.Fatal(err)
	}
	check(t, s, "an unconstrained MoveTeleport that strands the rider", false)

	// A failed execution rolls back to the exact prior occupancy.
	f := mustSurface(t, 6, 6, geom.V(1, 1), geom.V(2, 1), geom.V(1, 0), geom.V(2, 0), geom.V(3, 0))
	f.WarmConnectivity()
	if _, err := f.executeTracked(rules.Application{Rule: badOrderShunt(t), Anchor: geom.V(2, 1)}); !errors.Is(err, ErrOccupied) {
		t.Fatalf("executeTracked: %v, want ErrOccupied", err)
	}
	check(t, f, "a failed execution", true)
}

// oracleMoveSet answers ValidateMoveSet on a clone: each step must find its
// source occupied and its in-bounds destination empty, and after it the
// surface must be connected and seal no cavity (referenceCavity).
func oracleMoveSet(t *testing.T, s *Surface, moves []PlannedMove) int {
	t.Helper()
	c := s.Clone()
	for k, mv := range moves {
		id, ok := c.BlockAt(mv.From)
		if mv.From == mv.To || !ok || !c.InBounds(mv.To) || c.Occupied(mv.To) {
			return k
		}
		c.teleport(id, mv.From, mv.To)
		if !c.Connected() || referenceCavity(c, mv.To) {
			return k
		}
	}
	return len(moves)
}

// referenceCavity is the cavity scan with a linear visited list, the form
// the epoch-stamped marks replaced, reading the surface without an overlay.
func referenceCavity(s *Surface, dst geom.Vec) bool {
	var seen, todo []geom.Vec
	visited := func(v geom.Vec) bool {
		for _, e := range seen {
			if e == v {
				return true
			}
		}
		return false
	}
	for _, start := range neighbors8(dst) {
		if !s.InBounds(start) || s.Occupied(start) || visited(start) {
			continue
		}
		regionStart := len(seen)
		seen = append(seen, start)
		todo = append(todo[:0], start)
		open := false
	scan:
		for len(todo) > 0 {
			v := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			for _, nb := range neighbors8(v) {
				if !s.InBounds(nb) {
					open = true
					break scan
				}
				if s.Occupied(nb) || visited(nb) {
					continue
				}
				seen = append(seen, nb)
				if len(seen)-regionStart > cavityScanCap {
					open = true
					break scan
				}
				todo = append(todo, nb)
			}
		}
		if !open {
			return true
		}
	}
	return false
}

// randomWave plans up to four displacements over the evolving occupancy:
// each source is a block of the surface as the earlier steps leave it, and
// each destination lies within two cells of it, so later steps' rings see
// the earlier steps' cells. Some destinations are occupied or off the
// surface, which cuts the valid prefix.
func randomWave(rng *rand.Rand, s *Surface) []PlannedMove {
	c := s.Clone()
	var wave []PlannedMove
	for n := 1 + rng.Intn(4); len(wave) < n; {
		occ := c.Positions()
		from := occ[rng.Intn(len(occ))]
		to := from.Add(geom.V(rng.Intn(5)-2, rng.Intn(5)-2))
		wave = append(wave, PlannedMove{From: from, To: to})
		if id, _ := c.BlockAt(from); from != to && c.InBounds(to) && !c.Occupied(to) {
			c.teleport(id, from, to)
		}
	}
	return wave
}

// TestConnectedWalkMatchesOracle walks surfaces that stay connected, on one
// and on three bands, so rung 0 stays armed throughout: validated Apply,
// constrained MoveTeleport, and candidates a veto refuses (some vetoes
// rebuild the cache on the post-move surface first). At every step
// ConnectedAfterDisplacement, IsArticulation and ValidateMoveSet must equal
// their oracles. TestConnectivityLadderMatchesOracle cannot cover this: its
// Place/Remove steps fragment the surface, which switches the ring off.
func TestConnectedWalkMatchesOracle(t *testing.T) {
	lib := rules.StandardLibrary()
	errNo := errors.New("no")
	cons := Constraints{RequireConnectivity: true}
	vetoes := []Constraints{
		{RequireConnectivity: true, Veto: func(*Surface) error { return errNo }},
		{RequireConnectivity: true, Veto: func(after *Surface) error {
			after.WarmConnectivity()
			return errNo
		}},
	}
	for _, bands := range []int{1, 3} {
		t.Run(fmt.Sprintf("bands=%d", bands), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(31 + bands)))
			// Verdicts per query kind (moves, wave steps, cut vertices)
			// that rung 0 answered, and that escalated past it.
			var ring, above [3]int
			for trial := 0; trial < 12; trial++ {
				s := randomConnectedSurface(t, rng, 18, 9, 25+rng.Intn(25))
				if err := s.EnableSharding(bands); err != nil {
					t.Fatal(err)
				}
				s.WarmConnectivity()
				for step := 0; step < 40; step++ {
					if !s.shconn.conn1 {
						t.Fatalf("trial %d step %d: conn1 off on a connected walk", trial, step)
					}
					occ := s.Positions()
					for q := 0; q < 8; q++ {
						u := occ[rng.Intn(len(occ))]
						d := u.Add(geom.V(rng.Intn(5)-2, rng.Intn(5)-2))
						got := s.ConnectedAfterDisplacement(u, d)
						want := s.InBounds(d) && !s.Occupied(d) &&
							oracleConnectedAfter(t, s, []geom.Vec{u}, []geom.Vec{d})
						if got != want {
							t.Fatalf("trial %d step %d: ConnectedAfterDisplacement(%v, %v) = %t, oracle %t",
								trial, step, u, d, got, want)
						}
						v := occ[rng.Intn(len(occ))]
						if got, want := s.IsArticulation(v), oracleIsArticulation(t, s, v); got != want {
							t.Fatalf("trial %d step %d: IsArticulation(%v) = %t, oracle %t", trial, step, v, got, want)
						}
						wave := randomWave(rng, s)
						if got, want := s.ValidateMoveSet(wave), oracleMoveSet(t, s, wave); got != want {
							t.Fatalf("trial %d step %d: ValidateMoveSet(%v) = %d, oracle %d", trial, step, wave, got, want)
						}
					}
					// One step of the walk.
					id := s.Blocks()[rng.Intn(s.NumBlocks())]
					switch rng.Intn(3) {
					case 0:
						apps, err := s.ApplicationsFor(id, lib, cons)
						if err != nil {
							t.Fatal(err)
						}
						if len(apps) > 0 {
							if _, err := s.Apply(apps[rng.Intn(len(apps))], cons); err != nil {
								t.Fatal(err)
							}
						}
					case 1:
						from, _ := s.PositionOf(id)
						to := from.Add(geom.V(rng.Intn(7)-3, rng.Intn(7)-3))
						if s.InBounds(to) && !s.Occupied(to) {
							if err := s.MoveTeleport(id, to, cons); err != nil && !errors.Is(err, ErrDisconnects) {
								t.Fatal(err)
							}
						}
					default:
						veto := vetoes[rng.Intn(len(vetoes))]
						apps, err := s.ApplicationsFor(id, lib, cons)
						if err != nil {
							t.Fatal(err)
						}
						if len(apps) > 0 {
							if err := s.Validate(apps[rng.Intn(len(apps))], veto); !errors.Is(err, ErrVetoed) {
								t.Fatalf("vetoed Validate: %v", err)
							}
						}
						from, _ := s.PositionOf(id)
						if to := from.Add(geom.V(1, 0)); s.InBounds(to) && !s.Occupied(to) {
							if err := s.MoveTeleport(id, to, veto); err == nil {
								t.Fatal("vetoed MoveTeleport moved")
							}
						}
					}
					if !s.Connected() {
						t.Fatalf("trial %d step %d: the walk disconnected the surface", trial, step)
					}
				}
				st := s.ConnStats()
				for i, r := range [3]Rungs{st.Moves, st.WaveSteps, st.CutVertices} {
					ring[i] += r.Ring
					above[i] += r.Band + r.Overlay
				}
			}
			for i, kind := range [3]string{"moves", "wave steps", "cut vertices"} {
				if ring[i] == 0 || above[i] == 0 {
					t.Errorf("%s: rung 0 answered %d and the rungs above it %d, want both used", kind, ring[i], above[i])
				}
			}
		})
	}
}
