package lattice

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rules"
)

// TestFillRectMatchesPlace pins the bulk-fill fast path to per-cell Place:
// same occupancy words, same grid, same ids, same block count — across
// rectangles that start/end inside, at, and across 64-bit word boundaries.
func TestFillRectMatchesPlace(t *testing.T) {
	cases := []struct {
		w, h int
		r    geom.Rect
	}{
		{10, 5, geom.RectSpanning(geom.V(0, 0), geom.V(9, 4))},
		{10, 5, geom.RectSpanning(geom.V(2, 1), geom.V(7, 3))},
		{200, 4, geom.RectSpanning(geom.V(0, 0), geom.V(199, 2))},  // 4 words per row, full rows
		{200, 4, geom.RectSpanning(geom.V(63, 1), geom.V(64, 2))},  // word seam
		{200, 4, geom.RectSpanning(geom.V(0, 0), geom.V(63, 0))},   // exactly one full word
		{200, 4, geom.RectSpanning(geom.V(60, 0), geom.V(130, 3))}, // spans three words
		{65, 3, geom.RectSpanning(geom.V(64, 0), geom.V(64, 2))},   // single trailing column
	}
	for ci, tc := range cases {
		fast, err := NewSurface(tc.w, tc.h)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := NewSurface(tc.w, tc.h)
		if err != nil {
			t.Fatal(err)
		}
		n, err := fast.FillRect(tc.r)
		if err != nil {
			t.Fatalf("case %d: FillRect: %v", ci, err)
		}
		if n != tc.r.Area() {
			t.Fatalf("case %d: FillRect placed %d, want %d", ci, n, tc.r.Area())
		}
		tc.r.Cells(func(v geom.Vec) {
			if _, err := slow.Place(v); err != nil {
				t.Fatal(err)
			}
		})
		if fast.NumBlocks() != slow.NumBlocks() {
			t.Fatalf("case %d: NumBlocks %d != %d", ci, fast.NumBlocks(), slow.NumBlocks())
		}
		for y := 0; y < tc.h; y++ {
			for x := 0; x < tc.w; x++ {
				v := geom.V(x, y)
				if fast.Occupied(v) != slow.Occupied(v) {
					t.Fatalf("case %d: occupancy mismatch at %v", ci, v)
				}
				fid, fok := fast.BlockAt(v)
				sid, sok := slow.BlockAt(v)
				if fok != sok || fid != sid {
					t.Fatalf("case %d: id mismatch at %v: (%d,%v) vs (%d,%v)", ci, v, fid, fok, sid, sok)
				}
			}
		}
		for _, id := range fast.Blocks() {
			fp, _ := fast.PositionOf(id)
			sp, ok := slow.PositionOf(id)
			if !ok || fp != sp {
				t.Fatalf("case %d: position of %d: %v vs %v (ok=%v)", ci, id, fp, sp, ok)
			}
		}
		if !fast.Connected() {
			t.Fatalf("case %d: filled rect not connected", ci)
		}
	}
}

// TestFillRectRejectsBadInput verifies atomicity of the pre-checks: an
// out-of-bounds or overlapping rectangle leaves the surface untouched.
func TestFillRectRejectsBadInput(t *testing.T) {
	s, err := NewSurface(100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(geom.V(70, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FillRect(geom.RectSpanning(geom.V(90, 0), geom.V(120, 3))); err == nil {
		t.Fatal("out-of-bounds FillRect accepted")
	}
	if _, err := s.FillRect(geom.RectSpanning(geom.V(60, 4), geom.V(80, 6))); err == nil {
		t.Fatal("overlapping FillRect accepted")
	}
	if s.NumBlocks() != 1 {
		t.Fatalf("failed FillRect mutated the surface: %d blocks", s.NumBlocks())
	}
	if !s.Occupied(geom.V(70, 5)) {
		t.Fatal("failed FillRect disturbed existing block")
	}
}

// TestEnableShardingLayout checks the band layout arithmetic and the Clone
// propagation of the band count.
func TestEnableShardingLayout(t *testing.T) {
	s, err := NewSurface(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.ShardCount() != 1 {
		t.Fatalf("new surface reports %d bands, want 1", s.ShardCount())
	}
	if err := s.EnableSharding(0); err == nil {
		t.Fatal("EnableSharding(0) accepted")
	}
	if err := s.EnableSharding(7); err != nil {
		t.Fatal(err)
	}
	sc := s.shconn
	if sc.bw != 15 { // ceil(100/7)
		t.Fatalf("band width %d, want 15", sc.bw)
	}
	if got := s.ShardCount(); got != 7 { // ceil(100/15)
		t.Fatalf("%d shards, want 7", got)
	}
	lo, hi := 0, 0
	for i := range sc.shards {
		c := &sc.shards[i].core
		if c.x0 != hi {
			t.Fatalf("shard %d starts at %d, want %d", i, c.x0, hi)
		}
		lo, hi = c.x0, c.x1
	}
	_ = lo
	if hi != 100 {
		t.Fatalf("bands end at %d, want 100", hi)
	}
	clone := s.Clone()
	if clone.ShardCount() != s.ShardCount() {
		t.Fatalf("clone has %d shards, want %d", clone.ShardCount(), s.ShardCount())
	}
}

// TestNewSurfaceBandLayout pins the layout NewSurface picks from the width:
// ceil(w/BandWidth) equal bands, kept by Clone.
func TestNewSurfaceBandLayout(t *testing.T) {
	for _, tc := range []struct{ w, bands, bw int }{
		{1, 1, 1},
		{BandWidth, 1, BandWidth},
		{BandWidth + 1, 2, 76},
		{3000, 20, BandWidth},
	} {
		s, err := NewSurface(tc.w, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.ShardCount(); got != tc.bands {
			t.Errorf("width %d: %d bands, want %d", tc.w, got, tc.bands)
		}
		if s.shconn.bw != tc.bw {
			t.Errorf("width %d: band width %d, want %d", tc.w, s.shconn.bw, tc.bw)
		}
		if got := s.Clone().ShardCount(); got != tc.bands {
			t.Errorf("width %d: clone has %d bands, want %d", tc.w, got, tc.bands)
		}
	}
}

// boundaryBiasedCell draws a cell whose column clusters around the sharding
// boundaries of sc (±2 columns) with probability ~3/4, exercising the
// contraction-graph and escalation paths far more often than uniform
// sampling would.
func boundaryBiasedCell(rng *rand.Rand, s *Surface, sc *shardedConn) geom.Vec {
	x := rng.Intn(s.Width())
	if len(sc.shards) > 1 && rng.Intn(4) != 0 {
		bi := 1 + rng.Intn(len(sc.shards)-1)
		x = sc.shards[bi].core.x0 + rng.Intn(5) - 2
		if x < 0 {
			x = 0
		}
		if x >= s.Width() {
			x = s.Width() - 1
		}
	}
	return geom.V(x, rng.Intn(s.Height()))
}

// TestConnectivityLadderMatchesOracle is the property test of the
// connectivity ladder: over randomized surfaces laid out in 1 to 6 column
// bands, whose mutations and queries concentrate on band-edge columns, every
// observable connectivity verdict must agree with the clone+DFS oracle, also
// after fault-injection removals fragment the ensemble. The verdicts are
// ConnectedAfterDisplacement, IsArticulation, the constrained
// ApplicationsFor enumeration (rule windows up to radius 3 straddle two
// bands) and the contraction graph's global component view.
func TestConnectivityLadderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	lib := rules.StandardLibrary()
	cons := Constraints{RequireConnectivity: true}
	for trial := 0; trial < 30; trial++ {
		w := 16 + rng.Intn(20)
		h := 8 + rng.Intn(8)
		s := randomConnectedSurface(t, rng, w, h, 30+rng.Intn(60))
		if err := s.EnableSharding(1 + trial%6); err != nil {
			t.Fatal(err)
		}
		sc := s.shconn
		for step := 0; step < 120; step++ {
			// Random mutation, boundary-biased.
			switch op := rng.Intn(10); {
			case op < 4: // place
				if v := boundaryBiasedCell(rng, s, sc); !s.Occupied(v) {
					if _, err := s.Place(v); err != nil {
						t.Fatal(err)
					}
				}
			case op < 7: // fault-injection removal
				if id, ok := s.BlockAt(boundaryBiasedCell(rng, s, sc)); ok {
					if err := s.Remove(id); err != nil {
						t.Fatal(err)
					}
				}
			default: // validated rule application on a boundary-biased block
				id, ok := s.BlockAt(boundaryBiasedCell(rng, s, sc))
				if !ok {
					continue
				}
				apps, err := s.ApplicationsFor(id, lib, cons)
				if err != nil {
					t.Fatal(err)
				}
				if len(apps) == 0 {
					continue
				}
				if _, err := s.Apply(apps[rng.Intn(len(apps))], cons); err != nil {
					t.Fatal(err)
				}
			}

			for q := 0; q < 6; q++ {
				from := boundaryBiasedCell(rng, s, sc)
				to := boundaryBiasedCell(rng, s, sc)
				got := s.ConnectedAfterDisplacement(from, to)
				want := s.Occupied(from) && !s.Occupied(to) &&
					oracleConnectedAfter(t, s, []geom.Vec{from}, []geom.Vec{to})
				if got != want {
					t.Fatalf("trial %d step %d: ConnectedAfterDisplacement(%v,%v) = %v, oracle %v",
						trial, step, from, to, got, want)
				}
			}
			for q := 0; q < 6; q++ {
				v := boundaryBiasedCell(rng, s, sc)
				if got, want := s.IsArticulation(v), oracleIsArticulation(t, s, v); got != want {
					t.Fatalf("trial %d step %d: IsArticulation(%v) = %v, oracle %v",
						trial, step, v, got, want)
				}
			}
			if id, ok := s.BlockAt(boundaryBiasedCell(rng, s, sc)); ok {
				got, err := s.ApplicationsFor(id, lib, cons)
				if err != nil {
					t.Fatal(err)
				}
				want := oracleApplications(t, s, id, lib)
				if len(got) != len(want) {
					t.Fatalf("trial %d step %d: ApplicationsFor(%d) = %v, oracle %v",
						trial, step, id, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d step %d: application %d = %v, oracle %v",
							trial, step, i, got[i], want[i])
					}
				}
			}
			// An empty delta composes the cached contraction graph's
			// component count.
			if got, want := s.connectedAfterMove(nil, nil), s.Connected(); got != want {
				t.Fatalf("trial %d step %d: contraction graph says connected=%v, oracle %v",
					trial, step, got, want)
			}
		}
	}
}

// oracleIsArticulation answers IsArticulation with the reference machinery:
// v is a cut vertex iff removing its block from a clone raises the
// component count. Counting, rather than asking Connected(), keeps the
// oracle exact on surfaces that fault injection already fragmented.
func oracleIsArticulation(t *testing.T, s *Surface, v geom.Vec) bool {
	t.Helper()
	id, ok := s.BlockAt(v)
	if !ok {
		return false
	}
	after := s.Clone()
	if err := after.Remove(id); err != nil {
		t.Fatal(err)
	}
	return componentCount(after) > componentCount(s)
}

// componentCount counts the 4-connected components with a map-based flood
// from every unvisited block.
func componentCount(s *Surface) int {
	seen := map[geom.Vec]bool{}
	n := 0
	for _, start := range s.Positions() {
		if seen[start] {
			continue
		}
		n++
		seen[start] = true
		stack := []geom.Vec{start}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range geom.Neighbors4(v) {
				if s.Occupied(nb) && !seen[nb] {
					seen[nb] = true
					stack = append(stack, nb)
				}
			}
		}
	}
	return n
}

// TestVetoKeepsBandsWarm: the in-place vetoes of Validate and MoveTeleport
// apply the motion, run the veto and roll it back. A veto that reads no
// connectivity must leave a warm cache warm — every band, every boundary
// edge list and the composed component count — so the next query rebuilds
// nothing, and the revalidated cache must still answer like a fresh one.
func TestVetoKeepsBandsWarm(t *testing.T) {
	errNo := errors.New("no")
	cons := Constraints{
		RequireConnectivity: true,
		Veto:                func(*Surface) error { return errNo },
	}
	for _, bands := range []int{1, 3} {
		t.Run(fmt.Sprintf("bands=%d", bands), func(t *testing.T) {
			s := rowSurface(t, 12, 6)
			if err := s.EnableSharding(bands); err != nil {
				t.Fatal(err)
			}
			s.WarmConnectivity()
			mover, _ := s.BlockAt(geom.V(6, 2))
			if err := s.Validate(slideApp(geom.V(6, 2)), cons); !errors.Is(err, ErrVetoed) {
				t.Fatalf("Validate: %v, want ErrVetoed", err)
			}
			assertBandsWarm(t, s, "Validate")
			if err := s.MoveTeleport(mover, geom.V(7, 2), cons); !errors.Is(err, ErrVetoed) {
				t.Fatalf("MoveTeleport: %v, want ErrVetoed", err)
			}
			assertBandsWarm(t, s, "MoveTeleport")
			fresh := s.Clone()
			for _, v := range s.Positions() {
				if got, want := s.IsArticulation(v), fresh.IsArticulation(v); got != want {
					t.Fatalf("revalidated cache: IsArticulation(%v) = %v, fresh cache %v", v, got, want)
				}
			}
		})
	}
}

func assertBandsWarm(t *testing.T, s *Surface, after string) {
	t.Helper()
	sc := s.shconn
	if !sc.valid {
		t.Errorf("after %s: composed component count invalid", after)
	}
	for i := range sc.shards {
		if !sc.shards[i].valid {
			t.Errorf("after %s: band %d invalid", after, i)
		}
	}
	for i := range sc.edges {
		if !sc.edges[i].valid {
			t.Errorf("after %s: boundary edge list %d invalid", after, i)
		}
	}
}

// TestShardedGlobalCompCount pins the contraction graph's component count,
// as WarmConnectivity returns it, to a direct flood count over
// configurations engineered to span bands: combs, bridges on boundary
// columns, and isolated islands per band.
func TestShardedGlobalCompCount(t *testing.T) {
	s, err := NewSurface(30, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Three 8-wide islands separated by empty columns, plus one bridge row
	// connecting the first two across a band boundary at x=10.
	for _, r := range []geom.Rect{
		geom.RectSpanning(geom.V(0, 0), geom.V(7, 3)),
		geom.RectSpanning(geom.V(11, 0), geom.V(18, 3)),
		geom.RectSpanning(geom.V(22, 0), geom.V(29, 3)),
	} {
		if _, err := s.FillRect(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.EnableSharding(3); err != nil { // bands of width 10: x=10, 20 boundaries
		t.Fatal(err)
	}
	if got := s.WarmConnectivity(); got != 3 {
		t.Fatalf("3 islands: contraction counts %d components", got)
	}
	// Bridge the first gap (columns 8..10 at y=1): one component fewer.
	for x := 8; x <= 10; x++ {
		if _, err := s.Place(geom.V(x, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.WarmConnectivity(); got != 2 {
		t.Fatalf("bridged islands: contraction counts %d components", got)
	}
	if s.Connected() {
		t.Fatal("oracle disagrees: surface should still be split")
	}
}

// TestShardedCombBoundary drives the boundary edge scan through a fragmented
// boundary — one distinct component pair per row — where the dedup must keep
// every pair, and then through a merged left column where eight edges share
// one left label. Pins the sort-and-compact dedup against the DFS oracle.
func TestShardedCombBoundary(t *testing.T) {
	s, err := NewSurface(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableSharding(2); err != nil { // bands of width 4: boundary 3|4
		t.Fatal(err)
	}
	// Comb teeth: isolated two-cell components straddling the boundary on
	// every even row. Each contributes its own contraction edge.
	teeth := 0
	for y := 0; y < 16; y += 2 {
		for _, v := range []geom.Vec{geom.V(3, y), geom.V(4, y)} {
			if _, err := s.Place(v); err != nil {
				t.Fatal(err)
			}
		}
		teeth++
	}
	if got := s.WarmConnectivity(); got != teeth {
		t.Fatalf("comb: contraction counts %d components, want %d", got, teeth)
	}
	if got := len(s.shconn.edges[0].pairs); got != teeth {
		t.Fatalf("comb: %d boundary pairs, want %d distinct", got, teeth)
	}
	// Fill the left boundary column: the left band collapses to one
	// component, so the eight edges dedup by right label only and the whole
	// surface becomes one component.
	for y := 1; y < 16; y += 2 {
		if _, err := s.Place(geom.V(3, y)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.WarmConnectivity(); got != 1 {
		t.Fatalf("merged comb: contraction counts %d components", got)
	}
	if got := len(s.shconn.edges[0].pairs); got != teeth {
		t.Fatalf("merged comb: %d boundary pairs, want %d", got, teeth)
	}
	if !s.Connected() {
		t.Fatal("oracle disagrees: merged comb should be connected")
	}
}
