package rules

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/matrix"
)

// Library is an ordered collection of uniquely named rules. Blocks consult
// their library to enumerate the motions available in a given neighbourhood,
// exactly as a VisibleSim BlockCode "can access the list of possible motions
// that are stored in the XML code" (§V-E).
//
// Add compiles every rule into a matcher record: its radius, its mover
// offsets and, for each (rule, mover) placement, the Motion Matrix
// requirement masks (see matrix.Motion.Masks) moved into the frame of the
// sensing window centred on the mover. Matching reads these snapshots, so a
// rule must not change after Add. When the sensing window fits a bitboard,
// AppendApplicationsOn thereby reads it once and validates every placement
// with two word operations instead of materialising Presence matrices —
// zero heap allocations until a match is found.
type Library struct {
	rules     []*Rule
	compiled  []compiledRule
	byName    map[string]*Rule
	maxRadius int
	// placements is every (rule, mover) placement in library order, then
	// mover order, with its masks in the frame of the radius-2·maxRadius
	// window centred on the mover. It is empty when that window exceeds
	// MaxWindowRadius (the extended library's 5x5 chain carry needs an
	// 81-cell window), and matching then reads one window per placement.
	placements []placement
}

// compiledRule is the packed matcher form of one rule, snapshotted at Add.
type compiledRule struct {
	rule    *Rule
	radius  int
	movers  []geom.Vec
	compact bool // matrix fits a 64-bit window, masks usable
}

// placement is one (rule, mover) pair compiled for the one-read matcher:
// the rule validates with the mover on pos when pos's sensing window w has
// w&mustOcc == mustOcc and w&mustEmpty == 0.
type placement struct {
	rule               *Rule
	mover              geom.Vec
	mustOcc, mustEmpty uint64
}

// NewLibrary builds a library from rules, rejecting duplicate names.
func NewLibrary(rs ...*Rule) (*Library, error) {
	l := &Library{byName: make(map[string]*Rule, len(rs))}
	for _, r := range rs {
		if err := l.Add(r); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Add appends a rule; the name must be unused and the rule valid.
func (l *Library) Add(r *Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if _, dup := l.byName[r.Name]; dup {
		return fmt.Errorf("rules: duplicate rule name %q", r.Name)
	}
	l.rules = append(l.rules, r)
	l.compiled = append(l.compiled, compiledRule{
		rule:    r,
		radius:  r.MM.Radius(),
		movers:  r.Movers(),
		compact: r.MM.Compact(),
	})
	l.byName[r.Name] = r
	if rad := r.MM.Radius(); rad > l.maxRadius {
		// A wider rule widens the sensing window: recompile every placement.
		l.maxRadius = rad
		l.placements = l.placements[:0]
		for i := range l.compiled[:len(l.compiled)-1] {
			l.placements = l.compiled[i].appendPlacements(l.placements, 2*rad)
		}
	}
	l.placements = l.compiled[len(l.compiled)-1].appendPlacements(l.placements, 2*l.maxRadius)
	return nil
}

// appendPlacements appends c's placements, one per mover, compiled into the
// frame of the radius-R window centred on the mover. It appends nothing when
// that window does not fit a bitboard. Every rule of a library whose window
// fits is compact: R = 2·MaxRadius <= MaxWindowRadius bounds each rule to a
// 3x3 matrix.
func (c *compiledRule) appendPlacements(dst []placement, R int) []placement {
	if R > MaxWindowRadius {
		return dst
	}
	occ, empty := c.rule.MM.Masks()
	for _, m := range c.movers {
		dst = append(dst, placement{rule: c.rule, mover: m,
			mustOcc: relocate(occ, c.radius, m, R), mustEmpty: relocate(empty, c.radius, m, R)})
	}
	return dst
}

// relocate moves a mask of a radius-r window centred on a rule's anchor into
// the radius-R window centred on the mover at offset m from that anchor.
// Both use WindowAround's layout: bit row*size+col, row 0 = north. Cell
// (dx, dy) from the anchor sits at (dx-m.X, dy-m.Y) from the mover, which
// R >= 2r keeps inside the window.
func relocate(mask uint64, r int, m geom.Vec, R int) uint64 {
	size, Size := 2*r+1, 2*R+1
	var out uint64
	for b := mask; b != 0; b &= b - 1 {
		i := bits.TrailingZeros64(b)
		row, col := i/size, i%size // dy = r-row, dx = col-r
		out |= 1 << uint((R-r+row+m.Y)*Size+R-r+col-m.X)
	}
	return out
}

// Rules returns the rules in insertion order. The slice is shared; callers
// must not modify it.
func (l *Library) Rules() []*Rule { return l.rules }

// Get returns the rule with the given name.
func (l *Library) Get(name string) (*Rule, bool) {
	r, ok := l.byName[name]
	return r, ok
}

// Len returns the number of rules.
func (l *Library) Len() int { return len(l.rules) }

// MaxRadius returns the largest matrix radius across the library; the
// sensing window a block needs to evaluate every rule.
func (l *Library) MaxRadius() int { return l.maxRadius }

// Names returns the sorted rule names.
func (l *Library) Names() []string {
	out := make([]string, 0, len(l.rules))
	for _, r := range l.rules {
		out = append(out, r.Name)
	}
	sort.Strings(out)
	return out
}

// Application is a concrete placement of a rule on the surface: the rule
// plus the absolute cell its matrix centre is anchored on.
type Application struct {
	Rule   *Rule
	Anchor geom.Vec
}

// AbsMove is an elementary move in absolute surface coordinates.
type AbsMove struct {
	Time     int
	From, To geom.Vec
}

// AbsMoves returns the rule's elementary moves translated to the anchor.
func (a Application) AbsMoves() []AbsMove {
	out := make([]AbsMove, len(a.Rule.Moves))
	for i, m := range a.Rule.Moves {
		out[i] = AbsMove{Time: m.Time, From: a.Anchor.Add(m.From), To: a.Anchor.Add(m.To)}
	}
	return out
}

// Movers returns the absolute positions of the blocks that move.
func (a Application) Movers() []geom.Vec {
	rel := a.Rule.Movers()
	out := make([]geom.Vec, len(rel))
	for i, v := range rel {
		out[i] = a.Anchor.Add(v)
	}
	return out
}

// MoveOf returns the absolute move of the block currently at pos, if that
// block moves under this application.
func (a Application) MoveOf(pos geom.Vec) (AbsMove, bool) {
	m, ok := a.Rule.MoveOf(pos.Sub(a.Anchor))
	if !ok {
		return AbsMove{}, false
	}
	return AbsMove{Time: m.Time, From: a.Anchor.Add(m.From), To: a.Anchor.Add(m.To)}, true
}

// Footprint returns the absolute cells constrained by the rule (non-wildcard
// codes), in deterministic order. The physics layer uses it for bounds
// checking: every constrained cell must exist on the surface.
func (a Application) Footprint() []geom.Vec {
	var out []geom.Vec
	r := a.Rule.MM.Radius()
	for dy := r; dy >= -r; dy-- {
		for dx := -r; dx <= r; dx++ {
			if a.Rule.MM.At(geom.V(dx, dy)) != event.Any {
				out = append(out, a.Anchor.Add(geom.V(dx, dy)))
			}
		}
	}
	return out
}

// String implements fmt.Stringer.
func (a Application) String() string {
	return fmt.Sprintf("%s@%s", a.Rule.Name, a.Anchor)
}

// PresenceAround samples the occupancy predicate into a Presence Matrix of
// the given radius centred on anchor. occ must report whether an absolute
// cell holds a block; cells outside the surface read as empty (a block can
// never find support beyond the surface edge).
func PresenceAround(anchor geom.Vec, radius int, occ func(geom.Vec) bool) *matrix.Presence {
	mp, err := matrix.NewPresence(2*radius + 1)
	if err != nil {
		panic(err)
	}
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			if occ(anchor.Add(geom.V(dx, dy))) {
				mp.Set(geom.V(dx, dy), event.Occupied)
			}
		}
	}
	return mp
}

// MaxWindowRadius is the largest sensing radius whose occupancy window fits
// one uint64 bitboard: a radius-3 window has 7x7 = 49 cells, a radius-4
// window 9x9 = 81. WindowAround and lattice.Surface.OccWindow refuse larger
// radii (the bit shifts would silently wrap); matching for such rules goes
// through the PresenceAround reference path, which compiledRule.matches and
// matchesOn select automatically because the matrix is not Compact.
const MaxWindowRadius = 3

// WindowAround samples the occupancy predicate into a window bitboard of
// the given radius centred on anchor: bit row*size+col in display order
// (row 0 = north), matching the layout of matrix.Motion.Masks. It is the
// allocation-free counterpart of PresenceAround for radii <=
// MaxWindowRadius; larger radii panic — their windows cannot be packed in
// 64 bits and must use PresenceAround.
func WindowAround(anchor geom.Vec, radius int, occ func(geom.Vec) bool) uint64 {
	if radius > MaxWindowRadius {
		panic(fmt.Sprintf("rules: WindowAround radius %d exceeds the 64-bit window (max %d); use PresenceAround", radius, MaxWindowRadius))
	}
	size := 2*radius + 1
	var w uint64
	bit := uint(0)
	for row := 0; row < size; row++ {
		y := anchor.Y + radius - row
		for col := 0; col < size; col++ {
			if occ(geom.V(anchor.X+col-radius, y)) {
				w |= 1 << bit
			}
			bit++
		}
	}
	return w
}

// WindowSource supplies occupancy windows directly from a physical
// occupancy store. lattice.Surface implements it with word extractions from
// its row bitsets, bypassing the per-cell predicate entirely.
type WindowSource interface {
	// OccWindow returns the occupancy window bitboard of the given radius
	// centred on anchor, in WindowAround's bit layout. Cells outside the
	// store read as empty.
	OccWindow(anchor geom.Vec, radius int) uint64
	// Occupied reports single-cell occupancy (the fallback for rules whose
	// matrices exceed a 64-bit window).
	Occupied(v geom.Vec) bool
}

// ApplicationsFor returns every application of the library's rules in which
// the block at pos is one of the movers, given the occupancy predicate.
// Order is deterministic: library order, then mover offsets in move order.
//
// This is the local decision procedure of an elected block: anchor each rule
// so that this block sits on one of the rule's origins, sample the
// neighbourhood, and keep the placements where MM⊗MP validates. The
// validation runs on the compiled bitboard matchers and performs no heap
// allocation until a matching application is found.
func (l *Library) ApplicationsFor(pos geom.Vec, occ func(geom.Vec) bool) []Application {
	var out []Application
	for i := range l.compiled {
		c := &l.compiled[i]
		for _, mover := range c.movers {
			anchor := pos.Sub(mover)
			if c.matches(anchor, occ) {
				out = append(out, Application{Rule: c.rule, Anchor: anchor})
			}
		}
	}
	return out
}

// ApplicationsOn is ApplicationsFor over a WindowSource: the sensing window
// is extracted with word operations from the source's occupancy bitsets
// instead of per-cell predicate calls (see AppendApplicationsOn).
func (l *Library) ApplicationsOn(pos geom.Vec, src WindowSource) []Application {
	return l.AppendApplicationsOn(nil, pos, src)
}

// AppendApplicationsOn appends the matching applications to dst and returns
// the extended slice, in the same deterministic order as ApplicationsOn.
// Hot paths that probe mobility per candidate (the planner's blocking veto)
// pass a reused buffer so the enumeration allocates nothing once warm.
//
// When the sensing window (radius 2·MaxRadius) fits a bitboard, it reads
// that window once, src.OccWindow(pos, 2·MaxRadius), and tests every
// compiled placement against it; otherwise it reads each placement's window
// around its anchor.
func (l *Library) AppendApplicationsOn(dst []Application, pos geom.Vec, src WindowSource) []Application {
	if len(l.placements) > 0 {
		return l.AppendApplicationsIn(dst, pos, src.OccWindow(pos, 2*l.maxRadius))
	}
	for i := range l.compiled {
		c := &l.compiled[i]
		for _, mover := range c.movers {
			anchor := pos.Sub(mover)
			if c.matchesOn(anchor, src) {
				dst = append(dst, Application{Rule: c.rule, Anchor: anchor})
			}
		}
	}
	return dst
}

// WindowRadius returns the radius of the one sensing window
// AppendApplicationsOn reads around a block, 2·MaxRadius, and whether that
// window fits a bitboard. When it does not, matching reads one window per
// placement and AppendApplicationsIn must not be used.
func (l *Library) WindowRadius() (int, bool) {
	return 2 * l.maxRadius, len(l.placements) > 0
}

// AppendApplicationsIn is AppendApplicationsOn on a sensing window already
// read: w is the radius-WindowRadius occupancy window centred on pos. It
// tests every compiled placement against w and appends the matches in
// AppendApplicationsOn's order.
func (l *Library) AppendApplicationsIn(dst []Application, pos geom.Vec, w uint64) []Application {
	for i := range l.placements {
		p := &l.placements[i]
		if w&p.mustOcc == p.mustOcc && w&p.mustEmpty == 0 {
			dst = append(dst, Application{Rule: p.rule, Anchor: pos.Sub(p.mover)})
		}
	}
	return dst
}

// matches validates one anchored placement of the compiled rule against an
// occupancy predicate.
func (c *compiledRule) matches(anchor geom.Vec, occ func(geom.Vec) bool) bool {
	if c.compact {
		return c.rule.MatchesWindow(WindowAround(anchor, c.radius, occ))
	}
	return c.rule.AppliesTo(PresenceAround(anchor, c.radius, occ))
}

// matchesOn is matches against a WindowSource's word-extracted windows.
func (c *compiledRule) matchesOn(anchor geom.Vec, src WindowSource) bool {
	if c.compact {
		return c.rule.MatchesWindow(src.OccWindow(anchor, c.radius))
	}
	return c.rule.AppliesTo(PresenceAround(anchor, c.radius, src.Occupied))
}
