package lattice

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/rules"
)

// Constraints configures the validation of a rule application beyond the
// Motion Matrix itself. The zero value checks only physics (matrix validity,
// bounds and time-step feasibility); the reconfiguration algorithm adds
// connectivity preservation, immobilised blocks (the frozen path of eq. (8))
// and a scenario-specific veto (the Remark 1 line/column blocking guard).
type Constraints struct {
	// RequireConnectivity rejects motions after which the ensemble is no
	// longer one 4-connected component (Remark 1). The check asks the
	// mover's 3×3 ring first (ring.go), then the incremental connectivity
	// cache (connectivity.go): no surface clone, no fresh DFS, and no
	// allocation on the boolean verdict.
	RequireConnectivity bool
	// Immobile reports blocks that must not move (nor be carried): blocks
	// frozen on the path under construction, and the Root pinned on I.
	Immobile func(BlockID) bool
	// Veto inspects the would-be post-move surface and may reject it; the
	// planner uses it for the Remark 1 "line or column between I and O"
	// blocking guard. The candidate motion is applied to the live surface
	// through the executor's undo log, the veto inspects it in place, and
	// the caller rolls the motion back — no surface clone. The veto must
	// only read the surface it is handed.
	Veto func(after *Surface) error
	// ForbidCavity rejects motions that seal an enclosed pocket of empty
	// cells (see cavityAfterMove). The serial algorithm never produces such
	// motions, but interleaved batch rounds can reach configurations where
	// an individually legal move pinches the empty region — and a sealed
	// pocket is permanent, leaving gradient descent to orbit its perimeter
	// forever. It is checked once the connectivity ladder, the mover's ring
	// first, has accepted the motion, and it stays a bounded scan of the
	// empty region around the destination rather than a ring test, because
	// it also rejects an already enclosed pocket the motion touches.
	ForbidCavity bool
}

// ApplyResult describes an executed rule application.
type ApplyResult struct {
	App        rules.Application
	Moved      []BlockID // ids in move-list order
	Hops       int       // elementary moves executed (= len(Moved))
	IsCarrying bool
}

// applyScratch holds the reusable buffers of the validation and execution
// paths. All slices grow to the small maxima of the rule set (move lists of
// a handful of entries) and are then reused forever, so the boolean
// validation verdict performs no heap allocation.
type applyScratch struct {
	moves   []rules.Move  // time-sorted copy of the rule's move list (replay + execution)
	overlay []overlayCell // occupancy overrides while replaying the schedule
	removed []geom.Vec    // net vacated cells of the candidate motion
	added   []geom.Vec    // net filled cells of the candidate motion
	undo    []cellSave    // execution rollback log (Apply atomicity, veto rollback)
	ids     []BlockID     // lifted movers of the executing time step
	conn1   bool          // the connectivity cache's conn1 before execution, restored by a rollback
	// The cavity scan's marks: cavMark[y*w+x] == cavEpoch for the empty
	// cells the current scan visited, allocated by the first scan (a
	// surface that never scans pays nothing).
	cavMark  []uint32
	cavEpoch uint32
	cavTodo  []geom.Vec // DFS frontier of the cavity scan
}

// overlayCell is one occupancy override: during the schedule replay the
// surface occupancy is read through the overlay without being mutated.
type overlayCell struct {
	cell geom.Vec
	occ  bool
}

// cellSave is one entry of the execution undo log: the original occupant of
// a touched cell (None for an originally empty cell).
type cellSave struct {
	cell geom.Vec
	id   BlockID
}

// violation is the allocation-free verdict of the validation core. Validate
// maps it to the package's wrapped sentinel errors; ApplicationsFor consumes
// it directly so that rejected candidates cost no error construction.
type violation uint8

const (
	vOK violation = iota
	vRule
	vOOBDest
	vOOBOrigin
	vVacant
	vCollision
	vImmobile
	vDisconnects
	vVetoed
	vCavity
)

// Validate checks whether the application can execute under the constraints,
// without modifying the surface. It returns nil when the motion is legal.
//
// Beyond the Motion Matrix physics, Validate replays multi-time-step move
// schedules against the evolving occupancy, so a rule whose later time step
// collides with a cell vacated too late — a condition the initial sensing
// window cannot express — is rejected here rather than failing halfway
// through execution: Validate passing guarantees Apply executes completely.
// (Single-step rules cannot collide: Table II already demands their
// destinations empty or handed over in the same instant.)
func (s *Surface) Validate(app rules.Application, c Constraints) error {
	v, at, vetoErr := s.validate(app, c)
	switch v {
	case vOK:
		return nil
	case vRule:
		return fmt.Errorf("%w: %s", ErrRuleInvalid, app)
	case vOOBDest:
		return fmt.Errorf("%w: destination %v of %s", ErrOutOfBounds, at, app)
	case vOOBOrigin:
		return fmt.Errorf("%w: origin %v of %s", ErrOutOfBounds, at, app)
	case vVacant:
		return fmt.Errorf("%w: no block at mover cell %v", ErrVacant, at)
	case vCollision:
		return fmt.Errorf("%w: %v during %s", ErrOccupied, at, app)
	case vImmobile:
		id, _ := s.BlockAt(at)
		return fmt.Errorf("%w: block %d at %v", ErrImmobile, id, at)
	case vDisconnects:
		return fmt.Errorf("%w: %s", ErrDisconnects, app)
	case vCavity:
		return fmt.Errorf("%w: %v sealed by %s", ErrCavity, at, app)
	default:
		return fmt.Errorf("%w: %s: %v", ErrVetoed, app, vetoErr)
	}
}

// validate is the allocation-free validation core shared by Validate,
// Apply and ApplicationsFor. It returns the first violated check, the cell
// it concerns (when meaningful) and, for vVetoed, the veto's own error.
// Only the veto check allocates (it runs user code on a scratch clone).
func (s *Surface) validate(app rules.Application, c Constraints) (violation, geom.Vec, error) {
	// 1. Physics: the Motion Matrix must validate against the actual
	//    occupancy (the MM⊗MP operator of §IV). Compact matrices go through
	//    the compiled path: the sensing window is extracted from the row
	//    bitsets and matched against the rule masks, no allocation. Larger
	//    matrices (beyond rules.MaxWindowRadius) use the reference
	//    Presence-matrix overlap.
	if mm := app.Rule.MM; mm.Compact() {
		if !app.Rule.MatchesWindow(s.OccWindow(app.Anchor, mm.Radius())) {
			return vRule, geom.Vec{}, nil
		}
	} else if !app.Rule.AppliesTo(rules.PresenceAround(app.Anchor, mm.Radius(), s.Occupied)) {
		return vRule, geom.Vec{}, nil
	}
	// ... and no block may leave the surface. The moves are read straight
	// off the rule (not via AbsMoves) so the boolean path allocates nothing.
	for _, m := range app.Rule.Moves {
		if to := app.Anchor.Add(m.To); !s.InBounds(to) {
			return vOOBDest, to, nil
		}
		if from := app.Anchor.Add(m.From); !s.InBounds(from) {
			return vOOBOrigin, from, nil
		}
	}
	// 2. Immobilised blocks (frozen path blocks, pinned Root). Origins are
	//    duplicate-free by rules.Rule.Validate (each cell is departed at
	//    most once), so every move names a distinct mover cell.
	if c.Immobile != nil {
		for _, m := range app.Rule.Moves {
			pos := app.Anchor.Add(m.From)
			id, ok := s.BlockAt(pos)
			if !ok {
				return vVacant, pos, nil
			}
			if c.Immobile(id) {
				return vImmobile, pos, nil
			}
		}
	}
	// 3. Time-step feasibility. A mid-execution collision needs a cell that
	//    is entered before it is vacated, which requires two distinct move
	//    times: in a single-step rule every destination is either required
	//    empty by Table II (code 3, already checked) or a handover cell
	//    lifted in the same instant (code 5). Only multi-step schedules are
	//    therefore replayed against the evolving occupancy; single-step
	//    rules — the whole standard library — pay nothing.
	if multiStep(app.Rule.Moves) {
		if v, at := s.replayMoves(app); v != vOK {
			return v, at, nil
		}
	} else if c.RequireConnectivity {
		s.netDeltaSingleStep(app)
	}
	// 4. Connectivity on the net delta, via the incremental cache — no
	//    clone, no fresh DFS (Remark 1).
	if c.RequireConnectivity && !s.connectedAfterMove(s.scratch.removed, s.scratch.added) {
		return vDisconnects, geom.Vec{}, nil
	}
	// 4b. Pocket sealing (batch admission only): no motion may enclose a
	//     region of empty cells. Checked here, not just at Apply time, so
	//     candidate enumeration and elections never even propose a sealing
	//     motion — an elected-but-unexecutable winner wastes a whole round.
	if c.ForbidCavity {
		if !c.RequireConnectivity && !multiStep(app.Rule.Moves) {
			s.netDeltaSingleStep(app)
		}
		for _, dst := range s.scratch.added {
			if s.cavityAfterMove(s.scratch.removed, s.scratch.added, dst) {
				return vCavity, dst, nil
			}
		}
	}
	// 5. Veto on the post-move state: apply the motion to the live surface
	//    through the undo log, let the veto inspect it in place, roll back.
	//    No clone — the veto pass reuses the same scratch-backed execution
	//    the real Apply uses, so a vetoed candidate allocates nothing.
	if c.Veto != nil {
		// rollbackCells restores conn1 along with the occupancy.
		wasValid := s.shconn.valid
		if v, at := s.executeCore(app, nil); v != vOK {
			// Unreachable after the physics checks above; roll back and
			// degrade to the underlying violation.
			s.rollbackCells()
			return v, at, nil
		}
		err := c.Veto(s)
		rebuilt := s.shconn.valid // a veto that rebuilt saw post-move state
		s.rollbackCells()
		if wasValid && !rebuilt {
			// The rollback restored the exact pre-move occupancy, so the
			// cache contents are still correct; only the valid flags were
			// cleared by the temporary mutations.
			s.shconn.revalidate()
		}
		if err != nil {
			return vVetoed, geom.Vec{}, err
		}
	}
	return vOK, geom.Vec{}, nil
}

// multiStep reports whether the move list spans more than one time step.
// Zero- and single-move lists (the latter the common case, the former only
// constructible by bypassing rules.New) are trivially single-step.
func multiStep(moves []rules.Move) bool {
	if len(moves) < 2 {
		return false
	}
	for _, m := range moves[1:] {
		if m.Time != moves[0].Time {
			return true
		}
	}
	return false
}

// netDeltaSingleStep fills the scratch removed/added slices with the net
// occupancy delta of a single-time-step application: origins that are not
// also destinations, destinations that are not also origins (handover cells
// cancel). The rule's origin/destination cells are duplicate-free by
// rules.Rule.Validate, so quadratic scans over the tiny move list suffice.
func (s *Surface) netDeltaSingleStep(app rules.Application) {
	sc := &s.scratch
	sc.removed = sc.removed[:0]
	sc.added = sc.added[:0]
	for _, m := range app.Rule.Moves {
		isDest := false
		for _, o := range app.Rule.Moves {
			if o.To == m.From {
				isDest = true
				break
			}
		}
		if !isDest {
			sc.removed = append(sc.removed, app.Anchor.Add(m.From))
		}
	}
	for _, m := range app.Rule.Moves {
		isOrigin := false
		for _, o := range app.Rule.Moves {
			if o.From == m.To {
				isOrigin = true
				break
			}
		}
		if !isOrigin {
			sc.added = append(sc.added, app.Anchor.Add(m.To))
		}
	}
}

// replayMoves replays the rule's timed move groups against the evolving
// occupancy without mutating the surface: each group first lifts all its
// movers, then drops them, exactly as executeTracked will. It catches the
// collisions at later time steps that the initial sensing window cannot
// express (Table II constrains only the pre-motion state). On success the
// scratch removed/added slices hold the net occupancy delta of the motion —
// handover cells, left and re-entered, cancel out.
func (s *Surface) replayMoves(app rules.Application) (violation, geom.Vec) {
	sc := &s.scratch
	sc.moves = append(sc.moves[:0], app.Rule.Moves...)
	// Stable insertion sort by time: move lists are tiny and sort.Slice
	// would allocate its closure on every call.
	for i := 1; i < len(sc.moves); i++ {
		for j := i; j > 0 && sc.moves[j].Time < sc.moves[j-1].Time; j-- {
			sc.moves[j], sc.moves[j-1] = sc.moves[j-1], sc.moves[j]
		}
	}
	sc.overlay = sc.overlay[:0]
	for lo := 0; lo < len(sc.moves); {
		hi := lo
		for hi < len(sc.moves) && sc.moves[hi].Time == sc.moves[lo].Time {
			hi++
		}
		for _, m := range sc.moves[lo:hi] {
			from := app.Anchor.Add(m.From)
			if !s.overlayOcc(from) {
				return vVacant, from
			}
			s.overlaySet(from, false)
		}
		for _, m := range sc.moves[lo:hi] {
			to := app.Anchor.Add(m.To)
			if s.overlayOcc(to) {
				return vCollision, to
			}
			s.overlaySet(to, true)
		}
		lo = hi
	}
	sc.removed = sc.removed[:0]
	sc.added = sc.added[:0]
	for _, e := range sc.overlay {
		if e.occ != s.Occupied(e.cell) {
			if e.occ {
				sc.added = append(sc.added, e.cell)
			} else {
				sc.removed = append(sc.removed, e.cell)
			}
		}
	}
	return vOK, geom.Vec{}
}

// overlayOcc reads occupancy through the replay overlay.
func (s *Surface) overlayOcc(v geom.Vec) bool {
	for _, e := range s.scratch.overlay {
		if e.cell == v {
			return e.occ
		}
	}
	return s.Occupied(v)
}

// overlaySet records an occupancy override, keeping one entry per cell so
// the final overlay is exactly the set of touched cells with their
// post-motion occupancy.
func (s *Surface) overlaySet(v geom.Vec, occ bool) {
	sc := &s.scratch
	for i := range sc.overlay {
		if sc.overlay[i].cell == v {
			sc.overlay[i].occ = occ
			return
		}
	}
	sc.overlay = append(sc.overlay, overlayCell{cell: v, occ: occ})
}

// Apply validates and atomically executes the application: all elementary
// moves of a time step happen simultaneously, so a carrying pair exchanges
// its handover cell (code 5) without intermediate vacancy. Atomicity also
// holds under failure: a rejected or failed application leaves the surface
// (grid, bitsets, positions, counters) exactly as it was.
func (s *Surface) Apply(app rules.Application, c Constraints) (ApplyResult, error) {
	if err := s.Validate(app, c); err != nil {
		return ApplyResult{}, err
	}
	conn1 := s.shconn.conn1
	moved, err := s.executeTracked(app)
	if err != nil {
		return ApplyResult{}, err
	}
	if c.RequireConnectivity {
		// Validated connected: one component before is one component after.
		s.shconn.conn1 = conn1
	}
	s.hops += len(moved)
	s.applications++
	return ApplyResult{
		App:        app,
		Moved:      moved,
		Hops:       len(moved),
		IsCarrying: app.Rule.IsCarrying(),
	}, nil
}

// execute performs the moves without validation or counter updates; the
// connectivity property tests use it to build their post-move oracle on a
// clone.
func (s *Surface) execute(app rules.Application) error {
	_, err := s.executeTracked(app)
	return err
}

// executeTracked performs the application's moves grouped by time step.
// Every touched cell's original occupant is recorded in an undo log before
// the first mutation, and any mid-schedule failure (a vacant origin or an
// occupied destination at a later time step) rolls the surface back to the
// pre-application state before returning the error — execution is atomic
// even when called without a prior Validate.
func (s *Surface) executeTracked(app rules.Application) ([]BlockID, error) {
	moved := make([]BlockID, 0, len(app.Rule.Moves))
	if v, at := s.executeCore(app, &moved); v != vOK {
		s.rollbackCells()
		if v == vVacant {
			return nil, fmt.Errorf("%w: %v during %s", ErrVacant, at, app)
		}
		return nil, fmt.Errorf("%w: %v during %s", ErrOccupied, at, app)
	}
	return moved, nil
}

// executeCore is the execution engine shared by Apply (via executeTracked)
// and the in-place veto pass of validate: it performs the application's
// moves grouped by time step against the live surface, recording every
// touched cell in the undo log, entirely on the reusable scratch — no heap
// allocation. moved, when non-nil, receives the displaced ids in move order.
// On a mid-schedule failure it returns the violation without rolling back;
// the caller owns the rollbackCells call (so the veto path can share the
// same log for its unconditional rollback).
func (s *Surface) executeCore(app rules.Application, moved *[]BlockID) (violation, geom.Vec) {
	sc := &s.scratch
	sc.moves = append(sc.moves[:0], app.Rule.Moves...)
	// Stable insertion sort by time: move lists are tiny and sort.Slice
	// would allocate its closure on every call.
	for i := 1; i < len(sc.moves); i++ {
		for j := i; j > 0 && sc.moves[j].Time < sc.moves[j-1].Time; j-- {
			sc.moves[j], sc.moves[j-1] = sc.moves[j-1], sc.moves[j]
		}
	}
	sc.undo = sc.undo[:0]
	sc.conn1 = s.shconn.conn1
	if cap(sc.ids) < len(sc.moves) {
		sc.ids = make([]BlockID, len(sc.moves))
	}
	for lo := 0; lo < len(sc.moves); {
		hi := lo
		for hi < len(sc.moves) && sc.moves[hi].Time == sc.moves[lo].Time {
			hi++
		}
		group := sc.moves[lo:hi]
		ids := sc.ids[:len(group)]
		// Phase 1: lift every mover of the step off the grid.
		for i, m := range group {
			from := app.Anchor.Add(m.From)
			id := s.grid[s.idx(from)]
			if id == None {
				return vVacant, from
			}
			ids[i] = id
			s.saveCell(from)
			s.grid[s.idx(from)] = None
			s.clearOcc(from)
		}
		// Phase 2: set every mover down on its destination.
		for i, m := range group {
			to := app.Anchor.Add(m.To)
			if s.grid[s.idx(to)] != None {
				return vCollision, to
			}
			s.saveCell(to)
			s.grid[s.idx(to)] = ids[i]
			s.setOcc(to)
			s.pos[ids[i]] = to
		}
		if moved != nil {
			*moved = append(*moved, ids...)
		}
		lo = hi
	}
	return vOK, geom.Vec{}
}

// saveCell records the original occupant of v in the undo log, once: the
// first save wins, so a cell lifted and later re-entered (a handover) keeps
// its pre-application content in the log.
func (s *Surface) saveCell(v geom.Vec) {
	sc := &s.scratch
	for _, u := range sc.undo {
		if u.cell == v {
			return
		}
	}
	sc.undo = append(sc.undo, cellSave{cell: v, id: s.grid[s.idx(v)]})
}

// rollbackCells restores every cell of the undo log to its original
// occupant — grid, row bitsets and position registers — leaving the surface
// exactly as before the failed execution, and with it the connectivity
// cache's conn1 flag.
func (s *Surface) rollbackCells() {
	sc := &s.scratch
	for _, u := range sc.undo {
		s.grid[s.idx(u.cell)] = u.id
		if u.id != None {
			s.setOcc(u.cell)
			s.pos[u.id] = u.cell
		} else {
			s.clearOcc(u.cell)
		}
	}
	sc.undo = sc.undo[:0]
	s.shconn.conn1 = sc.conn1
}

// ApplicationsFor returns every rule application from lib in which block id
// is a mover and that passes Validate under the constraints. Deterministic
// order (library order, then anchor placements). Rejected candidates go
// through the allocation-free validation core, so with connectivity-only
// constraints the enumeration allocates nothing beyond the result slice.
func (s *Surface) ApplicationsFor(id BlockID, lib *rules.Library, c Constraints) ([]rules.Application, error) {
	pos, ok := s.posOf(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	var out []rules.Application
	for _, app := range lib.ApplicationsOn(pos, s) {
		if v, _, _ := s.validate(app, c); v == vOK {
			out = append(out, app)
		}
	}
	return out, nil
}

// MoveTeleport displaces a block to an arbitrary free cell without any rule
// validation or support requirement. This is the motion model of the
// baseline system [14] (Tembo & El Baz 2013), where "blocks could move
// freely on the surface without any support of other blocks". Connectivity
// may still be demanded through c.RequireConnectivity; like Validate it is
// answered by the incremental cache without cloning the surface.
func (s *Surface) MoveTeleport(id BlockID, to geom.Vec, c Constraints) error {
	from, ok := s.posOf(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	if !s.InBounds(to) {
		return fmt.Errorf("%w: %v", ErrOutOfBounds, to)
	}
	if s.grid[s.idx(to)] != None {
		return fmt.Errorf("%w: %v", ErrOccupied, to)
	}
	if c.Immobile != nil && c.Immobile(id) {
		return fmt.Errorf("%w: block %d", ErrImmobile, id)
	}
	if c.RequireConnectivity {
		sc := &s.scratch
		sc.removed = append(sc.removed[:0], from)
		sc.added = append(sc.added[:0], to)
		if !s.connectedAfterMove(sc.removed, sc.added) {
			return fmt.Errorf("%w: teleport %d to %v", ErrDisconnects, id, to)
		}
	}
	conn1 := s.shconn.conn1
	if c.Veto != nil {
		// Same undo discipline as the rule-application veto: move in place,
		// inspect, move back, and keep the connectivity cache warm (the
		// teleport there and back restores the exact occupancy).
		wasValid := s.shconn.valid
		s.teleport(id, from, to)
		err := c.Veto(s)
		rebuilt := s.shconn.valid
		s.teleport(id, to, from)
		if wasValid && !rebuilt {
			s.shconn.revalidate()
		}
		s.shconn.conn1 = conn1
		if err != nil {
			return fmt.Errorf("%w: %v", ErrVetoed, err)
		}
	}
	s.teleport(id, from, to)
	if c.RequireConnectivity {
		s.shconn.conn1 = conn1 // validated connected, as in Apply
	}
	s.hops += from.Manhattan(to) // a free move of k cells costs k hops
	s.applications++
	return nil
}

// teleport moves block id from from to to, unconditionally.
func (s *Surface) teleport(id BlockID, from, to geom.Vec) {
	s.grid[s.idx(from)] = None
	s.clearOcc(from)
	s.grid[s.idx(to)] = id
	s.setOcc(to)
	s.pos[id] = to
}
