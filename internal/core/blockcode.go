package core

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/dsterm"
	"repro/internal/election"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
)

// shared is the run-wide state all BlockCodes of one run point at: the
// configuration, the completion report sink and the session's observer
// emitter (nil when nobody listens). It carries no algorithm state — every
// protocol decision lives in per-block state or in messages.
type shared struct {
	cfg      Config
	term     exec.Termination
	emit     *emitter
	finished atomic.Bool
}

// BlockCode is the per-block program of Algorithm 1. All blocks run the
// same code; the block that boots on cell I discovers it is the Root
// (Assumption 2) and coordinates the iterated elections.
type BlockCode struct {
	sh *shared
	id lattice.BlockID

	// Dijkstra–Scholten engagement (one tracker, reused every round).
	ds dsterm.Tracker[lattice.BlockID]
	// activated lists the neighbours whose ports accepted this block's
	// Activate of the current round and that have not acknowledged it yet,
	// lattice.None elsewhere (the father is never activated). Either
	// acknowledgement clears a port: the subtree Ack of a neighbour the
	// Activate engaged, or the crossing Activate of a neighbour that engaged
	// first (the echo, see onActivate).
	activated [geom.NumDirs]lattice.BlockID
	// agg folds this node's bid with its children's acks; it also keeps the
	// routing pointer (Via) the Select message follows. It survives
	// disengagement until the next round resets it, and only its methods
	// read it (ackFather copies the kept list out), so one aggregator
	// serves every round.
	agg election.Aggregator
	// ackCands is the candidate list of this block's last father-ack. A
	// block acks once per round and its father folds the list before the
	// Root can open the next round, so ackFather refills the same array
	// every round.
	ackCands []msg.Cand

	round  uint32
	tier   msg.Tier
	father lattice.BlockID

	// Root-only sequencing state.
	isRoot        bool
	roundsRun     int
	electionsLeft int // MaxRounds budget; <0 means unlimited
	// moveSet is the round's admitted winners in admission order (the
	// paper's single GO generalised to a batch), moveWaves their parallel
	// wave ordering stamps (0 = unordered, s >= 1 = s-th member of the
	// round's wave) and moveCells the cells they bid from, where their GO
	// entries and releases are routed; movePlans holds their planned moves,
	// which admission tests and what-if validates (admitWinners' scratch,
	// reused across rounds). reported and released are bit sets
	// over moveSet indices (a round has at most msg.MaxBatch winners): the
	// winners whose MoveDone report arrived, routed or flooded, each
	// counted once, and the wave members the Root has released.
	// batchReachedO remembers whether any reported hop landed on O.
	moveSet       []lattice.BlockID
	moveWaves     []uint8
	moveCells     []msg.Cell
	movePlans     []lattice.PlannedMove
	reported      uint32
	released      uint32
	batchReachedO bool
	// roundHops counts the current round's reported successful hops; the
	// next Activate carries it (msg.Message.Hops), so every block lifts its
	// suppression once per success before it bids again. failStreak counts
	// consecutive completed rounds without one (batch runs only). A batch
	// trajectory can reach states where the same few blocks — each holding
	// a bid whose every candidate the physical layer rejects — cycle
	// through the suppression backoff and monopolise tier-0 elections
	// forever, a livelock the empty-election ladder never sees because the
	// elections are not empty. The Root breaks it by escalating the
	// election tier on the failure streak, which widens the stuck blocks'
	// own candidate lists with retreat moves. The serial protocol never
	// consults the streak, so k = 1 stays bit-identical to the paper's
	// sequencing.
	roundHops  int
	failStreak int
	// emptyStreak counts consecutive all-tier election ladders that found
	// nobody electable. The Root only declares a blocking after several
	// empty ladders: a single empty sweep can be transient (suppression
	// backoff in flight, sensor faults), and retrying re-reads the world.
	emptyStreak int

	// Dead-end flood deduplication: a routed message (see route) that meets
	// a dead end is flooded from there — a MoveDone report, a batch GO entry
	// or a wave release. A block forwards each such flood of a round once
	// and retains it in floods, because batch rounds re-push it on topology
	// changes (see repushFloods). Round numbers strictly increase, so the
	// list resets whenever a younger round's flood arrives. Routed copies
	// are neither deduplicated nor retained: each travels one path, and a
	// block that relayed one must still forward the flood a dead end
	// further on makes of it.
	floodRound uint32
	floods     []msg.Message
	// synced lists the neighbours known to hold every flood this block
	// retains, lattice.None elsewhere. It starts as the whole Neighbor
	// Table, since a booting block retains nothing; a neighbour leaves it
	// when this block forwards or starts a dead-end flood that the
	// neighbour did not receive (a routed copy is never retained, so it
	// changes nothing), and joins it when repushFloods re-sends it the
	// retained floods. repushFloods skips it. A send the port accepts is
	// delivered (links are reliable, Assumption 3), so a neighbour it
	// reached holds the flood.
	synced [geom.NumDirs]lattice.BlockID

	// Deferred wave execution: a winner whose GO entry carries wave stamp
	// s >= 1 holds its hop until the Root releases it, which the Root does
	// once every lower-stamped winner has reported — the wave validated as
	// an ordered what-if, so executing in stamp order is what makes
	// overlapping same-direction moves commute (the conveyor). pendingHop
	// marks a held hop of the current round; releaseRound is the round of
	// the last release this block received. A release can overtake the
	// entry, so tryPendingHop runs when either arrives.
	pendingHop     bool
	pendingHopTier msg.Tier
	releaseRound   uint32

	// suppressedFor marks a block whose elected move attempt was entirely
	// rejected by the physical layer: it bids neutral for that many
	// upcoming elections, so the Root immediately tries someone else. The
	// counter decays (a bounded retry backoff: rejection can be transient,
	// e.g. under sensor faults) and clears at once when the neighbourhood
	// changes or any block moved in the previous round (the Activate's
	// hop count).
	suppressedFor int
	// hopFailStreak counts this block's consecutive fully rejected hop
	// attempts. In batch runs the backoff doubles with the streak and a
	// persistently failing block resists the global suppression clears:
	// its rejection is an ensemble-connectivity condition that a local
	// neighbourhood change does not lift, and without the escalating
	// backoff a distance-best stuck block monopolises elections (it wins,
	// fails, is un-suppressed by the next successful mover, and wins
	// again) while movable blocks starve. Any successful own hop resets
	// the streak. Serial runs (parallelK == 1) keep the paper's flat
	// backoff exactly.
	hopFailStreak int
	// noReturnTo is the anti-oscillation memory: after any hop the block
	// refuses to hop straight back into the cell it came from, until it
	// observes an external change in its sensed neighbourhood ("if nothing
	// around me changed, my last move is still right; if something changed,
	// reconsider"). Without it, a block whose only distance-decreasing move
	// is a trap ping-pongs between two cells forever, starving the blocks
	// that could make real progress.
	noReturnTo  geom.Vec
	hasNoReturn bool
	// pendingOwnMove distinguishes the OnMoved callback of a hop this block
	// initiated (memory must survive) from a passive carry displacement
	// (memory is stale and must clear).
	pendingOwnMove bool
	done           bool

	// Batch-run bid cache: the exact application this block's last bid was
	// planned from (ownCandidate, parallelK > 1). A winner executes this
	// plan — the one the Root's admission ladder validated — before falling
	// back to replanning, so a wave's executed moves match its what-if. The
	// cache is only trusted when the round matches and the block still
	// stands where it bid (a passive carry displacement invalidates it);
	// the serial protocol never populates it.
	bidRound uint32
	bidPos   geom.Vec
	bidApp   rules.Application
	hasBid   bool

	// win is the planner's view of the sensing window; plan points it at
	// the running hook's Env, so an enumeration allocates no window source.
	// plans holds every plan's applications and candidates.
	win   sensed
	plans planBuf
}

// avoidCell returns the planner exclusion for this block at the given tier;
// the desperation tier overrides the no-return memory.
func (b *BlockCode) avoidCell(tier msg.Tier) *geom.Vec {
	if !b.hasNoReturn || tier >= msg.TierDesperate {
		return nil
	}
	v := b.noReturnTo
	return &v
}

// plan enumerates this block's admissible moves from pos at the given tier
// (planCandidates), reading the sensing window through env. The list is
// valid until the block's next plan.
func (b *BlockCode) plan(env exec.Env, pos geom.Vec, tier msg.Tier) []CandidateMove {
	b.win.env = env
	return planCandidates(&b.sh.cfg, env.Library(), pos, &b.win, tier, b.avoidCell(tier), &b.plans)
}

// newObservedFactory returns the exec.CodeFactory for one run of the
// algorithm. term receives the Root's completion report; em, the session's
// observer emitter (nil when nobody listens), streams the Root's election
// milestones.
func newObservedFactory(cfg Config, term exec.Termination, em *emitter) exec.CodeFactory {
	sh := &shared{cfg: cfg.WithDefaults(), term: term, emit: em}
	return func(id lattice.BlockID) exec.BlockCode {
		b := &BlockCode{sh: sh, id: id, electionsLeft: -1}
		if sh.cfg.MaxRounds > 0 {
			b.electionsLeft = sh.cfg.MaxRounds
		}
		return b
	}
}

// OnStart implements exec.BlockCode: the block on I assumes the Root role
// and opens the first election.
func (b *BlockCode) OnStart(env exec.Env) {
	// A block that retains no flood yet is synced with every neighbour.
	b.synced = env.Neighbors()
	if env.Position() != env.Input() {
		return
	}
	b.isRoot = true
	if env.Input() == env.Output() {
		// Degenerate instance: the path is the single cell I = O.
		b.finish(env, true)
		return
	}
	b.startElection(env, msg.TierDecreasing)
}

// startElection opens election round k+1 as the Root (§V-C first phase).
func (b *BlockCode) startElection(env exec.Env, tier msg.Tier) {
	if b.done {
		return
	}
	if b.electionsLeft == 0 {
		b.finish(env, false)
		return
	}
	if b.electionsLeft > 0 {
		b.electionsLeft--
	}
	b.round++
	b.tier = tier
	hops := b.roundHops
	b.moveSet = b.moveSet[:0]
	b.reported, b.released = 0, 0
	b.batchReachedO = false
	b.roundHops = 0
	if tier == msg.TierRetreat {
		b.sh.cfg.Counters.EscapeElections.Add(1)
	}
	b.sh.emit.emit(Event{Kind: EventRoundStarted, Round: int(b.round), Tier: tier,
		Batch: b.sh.cfg.parallelK()})
	if err := b.ds.BeginRoot(b.round); err != nil {
		b.sh.cfg.Counters.RootBeginFailures.Add(1)
		b.finish(env, false)
		return
	}
	// The Root is pinned on I (Lemma 1(b)) and never a candidate.
	b.agg.Reset(election.Neutral(), b.foldWidth())

	init := msg.Message{
		Type:   msg.TypeActivate,
		Round:  b.round,
		Tier:   tier,
		Father: b.id,
		Output: msg.CellOf(b.sh.cfg.Output),
		// Eqs. (6)-(7): the initial bound is |O-I| attributed to the Root.
		ShortestDistance: b.sh.cfg.InitialShortestDistance(),
		IDShortest:       b.id,
		Hops:             uint8(hops),
	}
	sent := b.activate(env, &init, lattice.None)
	if done, err := b.ds.RecordSent(sent); err != nil || done {
		// A Root with no neighbours cannot build anything (excluded by
		// Assumption 2, handled defensively).
		b.ds.Disengage()
		b.finish(env, false)
	}
}

// OnMessage implements exec.BlockCode. The handlers read the message
// through a pointer and copy only what they keep or send on.
func (b *BlockCode) OnMessage(env exec.Env, from lattice.BlockID, m msg.Message) {
	if b.done {
		return
	}
	switch m.Type {
	case msg.TypeActivate:
		b.onActivate(env, from, &m)
	case msg.TypeAck:
		b.onAck(env, from, &m)
	case msg.TypeSelect:
		b.onSelect(env, from, &m)
	case msg.TypeSelectAck:
		b.onSelectAck(env, from, &m)
	case msg.TypeMoveDone:
		b.onMoveDone(env, from, &m)
	case msg.TypeFinished:
		b.onFinishedFlood(env, from, &m)
	}
}

// onActivate handles the first phase of the election: engagement in the
// activity graph, bid computation and activation forwarding.
func (b *BlockCode) onActivate(env exec.Env, from lattice.BlockID, m *msg.Message) {
	class, err := b.ds.OnActivate(m.Round, from)
	if err != nil {
		b.sh.cfg.Counters.RejectedActivates.Add(1)
		return
	}
	switch class {
	case dsterm.Engaged:
		b.round = m.Round
		b.tier = m.Tier
		b.father = from
		// A new round begins: a hop still pending from an older round's wave
		// must never fire into it (cannot normally happen — the Root waits
		// for every winner's MoveDone — but a fault-injected run can drop
		// the release that would have let it go).
		b.pendingHop = false
		// Every success of the previous round is global progress: any
		// previously impossible move may have become possible, so the
		// backoff lifts once per reported hop before this block bids.
		for range m.Hops {
			b.liftSuppression()
		}
		own := b.ownCandidate(env, m.Round, m.Tier)
		b.agg.Reset(own, b.foldWidth())

		fwd := *m
		fwd.Father = b.id
		// Keep the paper's running-best fields current on the way down.
		if !own.IsNeutral() && own.Distance < m.ShortestDistance {
			fwd.ShortestDistance = own.Distance
			fwd.IDShortest = b.id
		}
		done, err := b.ds.RecordSent(b.activate(env, &fwd, from))
		switch {
		case err != nil:
			b.sh.cfg.Counters.RejectedActivates.Add(1)
		case done:
			b.ackFather(env)
		}
	case dsterm.Redundant:
		// "An active block ... does nothing." A neighbour engaged in this
		// round before this block's Activate reached it has sent its own
		// Activate across the same edge, and each of the two crossing
		// Activates acknowledges the other (Chang's echo): the edge carries
		// two messages, and neither side sends an Ack. The Neighbor Tables
		// are symmetric and still during an election — the Root opens a
		// round only after every hop of the last one has reported — so on
		// a healthy run a redundant Activate always comes from a neighbour
		// this block activated.
		if !b.clearActivated(from) {
			b.neutralAck(env, from, m)
			return
		}
		done, err := b.ds.OnAck(m.Round)
		switch {
		case err != nil:
			b.sh.cfg.Counters.RejectedActivates.Add(1)
		case done:
			b.complete(env)
		}
	case dsterm.Stale:
		b.neutralAck(env, from, m)
	}
}

// neutralAck answers an Activate this block's own Activate did not cross —
// one from a neighbour it did not activate, or one of an older round — with
// the acknowledgement the Dijkstra–Scholten protocol requires, carrying a
// neutral bid. Healthy runs never send one.
func (b *BlockCode) neutralAck(env exec.Env, from lattice.BlockID, m *msg.Message) {
	b.sh.cfg.Counters.NeutralAcks.Add(1)
	neutral := election.Neutral()
	_ = env.Send(from, msg.Message{
		Type: msg.TypeAck, Round: m.Round, Tier: m.Tier,
		Father: from, Son: b.id,
		ShortestDistance: neutral.Distance, IDShortest: neutral.ID,
	})
}

// activate sends the round's Activate *m to every neighbour but father,
// remembers in activated the ones whose ports accepted it and returns how
// many did.
func (b *BlockCode) activate(env exec.Env, m *msg.Message, father lattice.BlockID) int {
	b.activated = env.Neighbors()
	sent := sendTo(env, m, &b.activated, father)
	b.clearActivated(father)
	return sent
}

// clearActivated removes nb from activated and reports whether it was
// there.
func (b *BlockCode) clearActivated(nb lattice.BlockID) bool {
	if nb == lattice.None {
		return false
	}
	i := slices.Index(b.activated[:], nb)
	if i < 0 {
		return false
	}
	b.activated[i] = lattice.None
	return true
}

// foldWidth is how many candidates this node's aggregator keeps: the serial
// protocol folds the single max; parallel-moves runs fold the full wire
// width so the Root's interference filter has msg.MaxBatch candidates to
// choose its <= K winners from.
func (b *BlockCode) foldWidth() int {
	if b.sh.cfg.parallelK() <= 1 {
		return 1
	}
	return msg.MaxBatch
}

// onAck folds a child's report and propagates the subtree result when the
// deficit clears (§V-C: "active blocks that have received acknowledgments
// from all their sons become inactive and send an acknowledgment message to
// their father"). A parallel-moves ack carries the child subtree's top-K
// candidate list; a serial or neutral ack degenerates to the legacy
// (ShortestDistance, IDshortest) pair. Priorities are recomputed from the
// public (round, id) pair, so the wire never carries them.
func (b *BlockCode) onAck(env exec.Env, from lattice.BlockID, m *msg.Message) {
	done, err := b.ds.OnAck(m.Round)
	if err != nil {
		b.sh.cfg.Counters.RejectedAcks.Add(1)
		return
	}
	b.clearActivated(from)
	if len(m.Cands) > 0 {
		for i := range m.Cands {
			c := &m.Cands[i]
			if b.agg.Fold(&election.Candidate{
				Cand:     *c,
				Priority: election.PriorityFor(b.sh.cfg.TieBreak, m.Round, c.ID),
			}, from) {
				// The bounded top-K lost a real bid (the msg.MaxBatch wire
				// limit): this one, or the last kept entry it evicted.
				// Correctness is unaffected — the lost bid is worse than
				// every kept one, so the global best always survives — but
				// the count surfaces in the message-stats event instead of
				// vanishing silently.
				b.sh.cfg.Counters.CandidatesDropped.Add(1)
			}
		}
	} else {
		b.agg.Fold(&election.Candidate{
			Cand:     msg.Cand{Distance: m.ShortestDistance, ID: m.IDShortest},
			Priority: election.PriorityFor(b.sh.cfg.TieBreak, m.Round, m.IDShortest),
		}, from)
	}
	if done {
		b.complete(env)
	}
}

// complete runs when this block's deficit clears: the Root's election is
// decided, and any other block reports its subtree to its father.
func (b *BlockCode) complete(env exec.Env) {
	if b.isRoot {
		b.onElectionComplete(env)
		return
	}
	b.ackFather(env)
}

// ackFather reports the subtree's kept candidates to the father and
// disengages. The legacy header pair always mirrors the best entry, so the
// message degrades gracefully to the serial protocol.
func (b *BlockCode) ackFather(env exec.Env) {
	best := b.agg.Best()
	m := msg.Message{
		Type: msg.TypeAck, Round: b.round, Tier: b.tier,
		Father: b.father, Son: b.id,
		ShortestDistance: best.Distance, IDShortest: best.ID,
	}
	if b.sh.cfg.parallelK() > 1 {
		b.ackCands = b.agg.AppendCands(b.ackCands[:0])
		m.Cands = b.ackCands
	}
	_ = env.Send(b.father, m)
	b.ds.Disengage()
}

// onElectionComplete runs at the Root when its deficit clears: the first
// phase is over, every block has been activated and acknowledged, and the
// Root holds the global top-K. It admits a batch of non-interfering winners
// and routes each its Select, or escalates.
func (b *BlockCode) onElectionComplete(env exec.Env) {
	b.ds.Disengage()
	b.sh.cfg.Counters.Elections.Add(1)
	b.roundsRun++
	best := b.agg.Best()
	if best.IsNeutral() {
		b.sh.emit.emit(Event{Kind: EventElectionDecided, Round: int(b.round),
			Tier: b.tier, Winner: lattice.None, Distance: best.Distance})
		// Nobody can move at this tier; escalate, retry the ladder, or
		// declare a blocking.
		if b.sh.cfg.AllowRetreat && b.tier < msg.TierDesperate {
			b.startElection(env, b.tier+1)
			return
		}
		b.emptyStreak++
		if b.emptyStreak < emptyLadderRetries {
			b.startElection(env, msg.TierDecreasing)
			return
		}
		b.finish(env, false)
		return
	}
	b.emptyStreak = 0
	b.moveSet = b.admitWinners(env, b.moveSet[:0])
	if em := b.sh.emit; em != nil {
		winners := make([]lattice.BlockID, len(b.moveSet))
		copy(winners, b.moveSet)
		waves := make([]uint8, len(b.moveWaves))
		copy(waves, b.moveWaves)
		em.emit(Event{Kind: EventElectionDecided, Round: int(b.round),
			Tier: b.tier, Winner: best.ID, Distance: best.Distance,
			Winners: winners, WaveStamps: waves, Batch: len(winners)})
	}
	b.sh.cfg.Counters.MovesElected.Add(int64(len(b.moveSet)))
	if b.sh.cfg.parallelK() == 1 {
		// Serial protocol: route the single Select down the father/son tree,
		// exactly as the paper specifies. No concurrent motion can sever the
		// tree before it arrives.
		id := b.moveSet[0]
		via, ok := b.agg.ViaFor(id)
		if !ok || via == lattice.None {
			// The Root itself won — impossible, it always bids Neutral.
			b.sh.cfg.Counters.RootSelfWins.Add(1)
			b.finish(env, false)
			return
		}
		_ = env.Send(via, msg.Message{
			Type: msg.TypeSelect, Round: b.round, Tier: b.tier, IDShortest: id,
		})
		return
	}
	// Batch round: route each winner its own GO entry, a Select whose
	// one-entry list carries the winner's wave ordering stamp, to the cell
	// it bid from. Tree routing is not safe here — the first winner's hop
	// can sever the father/son tree while the other Selects are still
	// travelling — but the bid cell is a fixed target: a winner does not
	// move before its entry arrives, and admission never lets one winner's
	// planned move displace another. An entry that meets a dead end floods,
	// and a flood reaches every block of an always-connected ensemble.
	entries := make([]msg.Cand, len(b.moveSet))
	for i, id := range b.moveSet {
		entries[i] = msg.Cand{ID: id, Wave: b.moveWaves[i]}
		b.route(env, &msg.Message{Type: msg.TypeSelect, Round: b.round, Tier: b.tier,
			IDShortest: id, To: b.moveCells[i], Cands: entries[i : i+1 : i+1]}, b.moveCells[i])
	}
}

// admitWinners filters the aggregated top-K candidates into the round's
// move-set through a two-pass footprint admission ladder, filling
// b.moveWaves with each admitted winner's wave ordering stamp and
// b.moveCells with the cell it bid from. The best
// candidate is always admitted (so a batch round makes at least the serial
// protocol's progress, and K = 1 degenerates to it exactly); candidates
// are tested, in election order, against all previously admitted winners
// using the planned-move footprints the bids carried:
//
// Pass 1 — window-disjoint winners (stamp 0). A candidate is admitted
// unordered when it is uncoupled with every admitted winner: no admitted
// winner's written cells fall inside this candidate's sensing window, and
// this candidate's written cells fall inside no admitted winner's window.
// An executor replans over its whole window at hop time (performHop), so
// window stability is exactly what makes concurrent hops reproduce their
// bids and commute; the old Chebyshev > 2r window-disjointness test bought
// the same guarantee at far coarser granularity (window-vs-window instead
// of writes-vs-window). This pass runs to completion first, so wave
// members never displace a disjoint winner — conveyors only fill the
// slots the disjoint pass left open.
//
// Pass 2 — conveyor waves (stamp s >= 1). A remaining candidate joins as
// an ordered wave member when its write set is disjoint with every
// admitted winner's, every winner it is coupled with moves in the same
// direction and sits strictly ahead of it along that direction (the
// follower advances into space its train is vacating — same-direction
// movers along a shared face form a conveyor, not a contention set), and
// the whole planned prefix validates as a batched what-if in admission
// order (exec.Env.ValidateMoveSet on the connectivity overlay). A stamped
// winner hops only after every lower-stamped winner — including all
// stamp-0 winners — reported MoveDone to the Root and the Root released
// it, so coupled hops execute sequentially and each replans over a settled
// window: the round stays equivalent to a serial execution.
//
// Everything else is rejected: a written cell clashes, a coupling opposes
// or crosses the train direction, the what-if fails, a carry couples (its
// passenger is invisible to the what-if overlay), or the candidate is a
// cut vertex whose departure could interact with the batch through
// connectivity.
//
// The pairwise tests are O(popcount) window-bitboard operations against
// at most msg.MaxBatch candidates; the batched what-if runs only for
// pass-2 candidates and is bounded and shard-local.
func (b *BlockCode) admitWinners(env exec.Env, dst []lattice.BlockID) []lattice.BlockID {
	k := b.sh.cfg.parallelK()
	radius := env.SensingRadius()
	b.moveWaves, b.moveCells = b.moveWaves[:0], b.moveCells[:0]
	// The admitted winners' planned moves (b.movePlans) and write
	// footprints, in admission order.
	planned := b.movePlans[:0]
	var fps [msg.MaxBatch]msg.Footprint
	var taken [msg.MaxBatch]bool
	n := 0
	// Pass 1: the window-disjoint move-set. The best candidate is admitted
	// unconditionally; every further candidate must be uncoupled with all
	// previously admitted winners. This pass alone reproduces the unordered
	// batch admission, so waves never displace a disjoint winner — they only
	// fill slots the disjoint pass left open.
	for i := 0; i < b.agg.Len() && n < k; i++ {
		c := b.agg.At(i)
		pos := c.Pos.Vec()
		if n > 0 {
			if c.Cut || c.Fp.Empty() {
				continue
			}
			ok := true
			for j := 0; j < n; j++ {
				if fps[j].Empty() {
					// No footprint to test against (non-compact rule):
					// fall back to the coarse window-vs-window distance.
					if pos.Chebyshev(planned[j].From) <= 2*radius {
						ok = false
						break
					}
					continue
				}
				if c.Fp.TouchesWindow(planned[j].From, radius) || fps[j].TouchesWindow(pos, radius) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
		}
		planned = append(planned, lattice.PlannedMove{From: pos, To: c.To.Vec()})
		fps[n] = c.Fp
		taken[i] = true
		n++
		dst = append(dst, c.ID)
		b.moveWaves = append(b.moveWaves, 0)
		b.moveCells = append(b.moveCells, c.Pos)
	}
	// Pass 2: conveyor fill. Remaining candidates join as ordered wave
	// members when every admitted winner they are coupled with is a
	// same-direction mover strictly ahead of them along the hop direction
	// (positive projection of the separation onto dir — the follower moves
	// into space its train is vacating) and the planned prefix validates as
	// a batched what-if on the connectivity overlay. Carries (rules moving
	// two blocks — four written cells) never join a coupling: the what-if
	// overlay models a single mover's from/to pair, so a carried passenger
	// would slip past validation unchecked.
	nextStamp := uint8(1)
	for i := 0; i < b.agg.Len() && n < k; i++ {
		if taken[i] {
			continue
		}
		c := b.agg.At(i)
		if c.Cut || c.Fp.Empty() || bits.OnesCount64(c.Fp.Write) > 2 {
			continue
		}
		move := lattice.PlannedMove{From: c.Pos.Vec(), To: c.To.Vec()}
		dir := move.To.Sub(move.From)
		ok := true
		for j := 0; j < n; j++ {
			a := planned[j]
			overlap := c.Fp.WritesOverlap(fps[j])
			if !overlap && !c.Fp.TouchesWindow(a.From, radius) && !fps[j].TouchesWindow(move.From, radius) {
				continue
			}
			// The coupled winner must be a member of the train this candidate
			// extends: same hop direction, strictly ahead along it (positive
			// projection) and exactly on the train's axis (zero cross
			// product). Oblique couplings — a mover diagonally offset from
			// the axis — are the ones whose combined surface writes carve
			// pockets a serial execution never would, so they contend.
			ahead := a.From.Sub(move.From)
			if a.To.Sub(a.From) != dir || ahead.X*dir.X+ahead.Y*dir.Y <= 0 ||
				ahead.X*dir.Y != ahead.Y*dir.X ||
				bits.OnesCount64(fps[j].Write) > 2 {
				ok = false
				break
			}
			// A write overlap is legal only as the head-to-tail handoff of
			// the train: the follower enters exactly the cell its
			// predecessor vacates (both are simple two-cell hops, so the
			// shared cell is the only possible overlap). The what-if below
			// replays the moves in stamp order, so the vacancy is modelled.
			if overlap && move.To != a.From {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		planned = append(planned, move)
		if env.ValidateMoveSet(planned) != n+1 {
			planned = planned[:n]
			continue
		}
		fps[n] = c.Fp
		n++
		dst = append(dst, c.ID)
		b.moveWaves = append(b.moveWaves, nextStamp)
		b.moveCells = append(b.moveCells, c.Pos)
		nextStamp++
	}
	b.movePlans = planned
	return dst
}

// onSelect handles the second election phase. A serial Select (no candidate
// list) is routed down the father/son tree exactly as the paper specifies;
// one of another round, or for a winner no subtree of this block reported,
// is dropped and counted. A batch GO entry (a one-entry candidate list) is
// routed towards its winner's bid cell, or flooded from a dead end; the
// winner hops on it.
func (b *BlockCode) onSelect(env exec.Env, from lattice.BlockID, m *msg.Message) {
	if len(m.Cands) > 0 {
		b.onGoEntry(env, from, m)
		return
	}
	if m.Round != b.round {
		b.sh.cfg.Counters.StaleSelects.Add(1)
		return
	}
	if m.IDShortest != b.id {
		via, ok := b.agg.ViaFor(m.IDShortest)
		if !ok || via == lattice.None {
			b.sh.cfg.Counters.UnroutedSelects.Add(1)
			return
		}
		_ = env.Send(via, *m)
		return
	}
	// Elected. First acknowledge the Root (ends the distributed election,
	// §V-C), then perform one hop towards O.
	_ = env.Send(b.father, msg.Message{
		Type: msg.TypeSelectAck, Round: m.Round, Tier: m.Tier, IDShortest: b.id,
	})
	b.performHop(env, m.Tier, false)
}

// onGoEntry handles one winner's batch GO entry: relayed on towards the
// winner's bid cell (To) unless this block is the winner, which hops on the
// current round's entry and drops, counting it, an entry of another round.
// Batch winners send no SelectAck: the Root sequences on the MoveDone
// reports (see maybeAdvance).
func (b *BlockCode) onGoEntry(env exec.Env, from lattice.BlockID, m *msg.Message) {
	if !b.relay(env, from, m, m.To, m.IDShortest == b.id) {
		return
	}
	if m.Round != b.round {
		b.sh.cfg.Counters.StaleEntries.Add(1)
		return
	}
	if m.Cands[0].Wave >= 1 {
		// Ordered wave member: hop only on the Root's release, which follows
		// the reports of every lower-stamped member — including every
		// unordered (stamp-0) winner — so this mover replans over a settled
		// window.
		b.pendingHop, b.pendingHopTier = true, m.Tier
		b.tryPendingHop(env)
		return
	}
	b.performHop(env, m.Tier, false)
}

// relay passes on a routed or flooded copy of a report, a GO entry or a
// release, and reports whether this block, the message's recipient (mine),
// should act on it. A routed copy for another block travels on towards
// target; a flooded one is forwarded once per round, and the recipient
// acts on its first copy.
func (b *BlockCode) relay(env exec.Env, from lattice.BlockID, m *msg.Message, target msg.Cell, mine bool) bool {
	if m.Son != lattice.None {
		if !mine {
			b.route(env, m, target)
		}
		return mine
	}
	if !b.keepFlood(m) {
		return false
	}
	b.forwardFlood(env, m, from)
	return mine
}

// tryPendingHop executes a deferred wave hop once this block holds both
// its GO entry and the Root's release of it for the current round; the
// release can arrive first, so both handlers call it. Deadlock-free
// because stamp-0 winners never wait, every winner reports on success and
// failure alike, the Root releases each stamp as soon as the lower stamps
// have reported, a dead end's flood is re-pushed on topology changes, and
// the Root cannot advance the round before this member's own report.
func (b *BlockCode) tryPendingHop(env exec.Env) {
	if b.pendingHop && b.releaseRound == b.round {
		b.pendingHop = false
		b.performHop(env, b.pendingHopTier, true)
	}
}

// repushFloods re-sends the current round's retained dead-end floods —
// reports, GO entries and wave releases — to every present neighbour
// outside synced, then makes the neighbours it reached synced. Batch rounds
// call it whenever the local topology changed (this block moved, or a
// sensed cell changed): concurrent motion can put a block next to a
// neighbour that never received a flood — the flood frontier passed before
// the adjacency existed — and without the re-push the Root could wait
// forever for a report, or a winner for an entry or a release, that died
// in a severed region. Routed copies need no re-push: each is one accepted
// send to a neighbour, and an accepted send is delivered. Every change to
// the Neighbor Table reaches the block as OnMoved or OnNeighborhoodChanged,
// so a new neighbour gets every retained flood, and one that left and came
// back is re-sent what it missed.
// Receivers deduplicate, so re-pushing is idempotent; the serial protocol
// (one mover, sequenced) never needs it and never calls it.
func (b *BlockCode) repushFloods(env exec.Env) {
	if b.done {
		return
	}
	nt := env.Neighbors()
	lacking := nt
	for d, nb := range nt {
		if slices.Contains(b.synced[:], nb) {
			lacking[d] = lattice.None
		}
	}
	reached := lacking
	for i := range b.floods {
		sendTo(env, &b.floods[i], &reached, lattice.None)
	}
	for d := range nt {
		if reached[d] != lacking[d] {
			nt[d] = lattice.None // its port refused a re-push
		}
	}
	b.synced = nt
}

// forwardFlood sends a dead-end flood to every adjacent block except
// `except`, which sent it, and keeps in synced only the neighbours that now
// hold it.
func (b *BlockCode) forwardFlood(env exec.Env, m *msg.Message, except lattice.BlockID) {
	holders := env.Neighbors()
	sendTo(env, m, &holders, except)
	for i, id := range b.synced {
		if id != except && !slices.Contains(holders[:], id) {
			b.synced[i] = lattice.None
		}
	}
}

// onSelectAck forwards the elected block's acknowledgement up to the Root.
func (b *BlockCode) onSelectAck(env exec.Env, from lattice.BlockID, m *msg.Message) {
	if b.isRoot {
		if m.Round == b.round {
			b.maybeAdvance(env)
		}
		return
	}
	_ = env.Send(b.father, *m)
}

// performHop executes the elected block's hop: the best admissible candidate
// motion that the physical layer accepts. On total failure the block
// self-suppresses and reports failure, so the Root re-elects someone else.
// waveMember marks a deferred wave hop (stamp >= 1): its failure is
// expected contention — the train moved and the follower's turn never
// materialised — not evidence the block is stuck, so it reports failure
// without the suppression backoff.
func (b *BlockCode) performHop(env exec.Env, tier msg.Tier, waveMember bool) {
	from := env.Position()
	// A batch winner first executes the exact application its bid was
	// planned from — the one the Root's admission ladder what-if validated —
	// so a wave's executed moves match the validated move-set. The cache is
	// trusted only when the round matches and the block still stands where
	// it bid; otherwise (or if the physics layer rejects it) fall back to a
	// fresh replan below.
	if b.hasBid && b.bidRound == b.round && b.bidPos == from {
		b.hasBid = false
		b.pendingOwnMove = true
		if err := env.Move(b.bidApp); err == nil {
			to := env.Position()
			b.hasNoReturn = true
			b.noReturnTo = from
			b.hopFailStreak = 0
			b.reportOutcome(env, from, to, true)
			return
		}
		b.pendingOwnMove = false
	}
	cands := b.plan(env, from, tier)
	for _, c := range cands {
		b.pendingOwnMove = true
		if err := env.Move(c.App); err == nil {
			to := env.Position()
			// Remember the origin so the next hop will not undo this one.
			b.hasNoReturn = true
			b.noReturnTo = from
			b.hopFailStreak = 0
			b.reportOutcome(env, from, to, true)
			return
		}
		b.pendingOwnMove = false
	}
	b.sh.cfg.Counters.MoveFailures.Add(1)
	if waveMember {
		b.reportOutcome(env, from, from, false)
		return
	}
	b.hopFailStreak++
	backoff := suppressionRounds
	if b.sh.cfg.parallelK() > 1 {
		// Escalating backoff (see the hopFailStreak field docs): 3, 6, 12,
		// 24, then capped at 48 rounds.
		shift := b.hopFailStreak - 1
		if shift > 4 {
			shift = 4
		}
		backoff = suppressionRounds << shift
	}
	b.suppressedFor = backoff
	b.reportOutcome(env, from, from, false)
}

// reportOutcome sends this winner's hop outcome towards the Root.
func (b *BlockCode) reportOutcome(env exec.Env, from, to geom.Vec, success bool) {
	b.route(env, &msg.Message{
		Type: msg.TypeMoveDone, Round: b.round, Tier: b.tier,
		Mover: b.id, From: msg.CellOf(from), To: msg.CellOf(to), Success: success,
	}, msg.CellOf(env.Input()))
}

// route hands m to one adjacent block strictly nearer target in Manhattan
// distance, naming it in Son: a MoveDone report travels to I, a batch GO
// entry or a wave release to its recipient's bid cell. Blocks know their
// own cell and the side of each neighbour, so every relay strictly lowers
// the distance and m either reaches its recipient or stops at a dead end:
// a block whose nearer cells are empty, or whose nearer neighbours' ports
// all refused (on the goroutine runtime a neighbour can move away between
// the table read and the send), or a block on target that is not the
// recipient (a winner's replanned move displaced it). A dead end floods m
// instead; the ensemble is connected (Remark 1), so the flood reaches the
// recipient.
func (b *BlockCode) route(env exec.Env, m *msg.Message, target msg.Cell) {
	nt := env.Neighbors()
	sides, n := towards(env.Position(), target)
	for _, d := range sides[:n] {
		if nb := nt[d]; nb != lattice.None {
			m.Son = nb
			if env.Send(nb, *m) == nil {
				return
			}
		}
	}
	c := b.sh.cfg.Counters
	switch {
	case m.Type == msg.TypeSelect:
		c.DeadEndEntries.Add(1)
	case m.Mover == lattice.None:
		c.DeadEndReleases.Add(1)
	default:
		c.DeadEndReports.Add(1)
	}
	m.Son = lattice.None
	if b.keepFlood(m) {
		b.forwardFlood(env, m, lattice.None)
	}
}

// towards returns the n sides of pos whose cells are nearer to target:
// none on target itself, one when pos shares a row or column with it, two
// otherwise. The axis with the larger remaining gap comes first, which
// keeps a route near the diagonal, where both sides stay open longest.
func towards(pos geom.Vec, target msg.Cell) (sides [2]geom.Dir, n int) {
	dx, dy := int(target.X)-pos.X, int(target.Y)-pos.Y
	x, y := geom.East, geom.North
	if dx < 0 {
		x, dx = geom.West, -dx
	}
	if dy < 0 {
		y, dy = geom.South, -dy
	}
	if dy > dx {
		x, y, dx, dy = y, x, dy, dx
	}
	if dx > 0 {
		sides[n] = x
		n++
	}
	if dy > 0 {
		sides[n] = y
		n++
	}
	return sides, n
}

// keepFlood records a dead-end flood — a report, a GO entry or a wave
// release — and reports whether it is new for its round. A report is keyed
// by its Mover, an entry or a release by its recipient (IDShortest, Mover
// None) and its type, so none hides another. Round numbers strictly
// increase, so a younger round's flood resets the list; the kept messages
// are what repushFloods re-sends.
func (b *BlockCode) keepFlood(m *msg.Message) bool {
	if m.Round < b.floodRound {
		return false
	}
	if m.Round > b.floodRound {
		b.floodRound = m.Round
		b.floods = b.floods[:0]
	}
	for i := range b.floods {
		if k := &b.floods[i]; k.Type == m.Type && k.Mover == m.Mover && k.IDShortest == m.IDShortest {
			return false
		}
	}
	b.floods = append(b.floods, *m)
	return true
}

// onMoveDone handles both kinds of MoveDone. The Root takes in every
// report, and any other block relays it towards I. A release (Mover None)
// is relayed towards its member's bid cell (To), and the member holds it
// for its pending wave hop.
func (b *BlockCode) onMoveDone(env exec.Env, from lattice.BlockID, m *msg.Message) {
	switch {
	case m.Mover == lattice.None:
		if b.relay(env, from, m, m.To, m.IDShortest == b.id) && m.Round == b.round {
			b.releaseRound = m.Round
			b.tryPendingHop(env)
		}
	case b.isRoot:
		b.onReport(env, m)
	default:
		b.relay(env, from, m, msg.CellOf(env.Input()), false)
	}
}

// onReport records a winner's outcome at the Root once, whichever way it
// came, releases the wave members it unblocks and lets the Root sequence
// the next iteration of Algorithm 1 when the round's whole move-set has
// reported.
func (b *BlockCode) onReport(env exec.Env, m *msg.Message) {
	i := slices.Index(b.moveSet, m.Mover)
	if m.Round != b.round || i < 0 || b.reported&(1<<i) != 0 {
		return
	}
	b.reported |= 1 << i
	if m.Success {
		b.roundHops++
		if m.To.Vec() == b.sh.cfg.Output {
			b.batchReachedO = true
		}
	}
	b.releaseWaves(env)
	b.maybeAdvance(env)
}

// releaseWaves routes a release to the bid cell of each ordered wave member
// whose every lower-stamped winner has reported, once (released remembers
// it), in stamp order: a member's release needs its predecessor's report,
// which needs the predecessor's release.
func (b *BlockCode) releaseWaves(env exec.Env) {
	for i, s := range b.moveWaves {
		if s == 0 || b.released&(1<<i) != 0 {
			continue
		}
		for j, t := range b.moveWaves {
			if t < s && b.reported&(1<<j) == 0 {
				return
			}
		}
		b.released |= 1 << i
		b.route(env, &msg.Message{Type: msg.TypeMoveDone, Round: b.round, Tier: b.tier,
			IDShortest: b.moveSet[i], To: b.moveCells[i]}, b.moveCells[i])
	}
}

// maybeAdvance moves the Root to the next round once every winner of the
// round's move-set reported its outcome. The paper has the Root turn
// inactive on the elected block's acknowledgement; that ack climbs the
// father/son tree, and the tree can be severed by the very motion the
// election triggered (a carried helper may be a relay). Sequencing
// therefore keys on the MoveDone reports, which reach the Root across any
// topology change of a still-connected ensemble (routed, or flooded and
// re-pushed from a dead end). The serial protocol keeps the SelectAck as
// the paper's election-termination signal, but it never advances a round:
// the hop's report does. Batch winners do not send it.
func (b *BlockCode) maybeAdvance(env exec.Env) {
	if bits.OnesCount32(b.reported) < len(b.moveSet) {
		return
	}
	if b.batchReachedO {
		// Algorithm 1's loop condition: a block occupies O.
		b.finish(env, true)
		return
	}
	tier := msg.TierDecreasing
	if b.sh.cfg.parallelK() > 1 {
		// Failure-streak ladder (batch runs only; see the field docs): a
		// round whose every mover was rejected by the physical layer bumps
		// the streak, and a persistent streak escalates the next election's
		// tier so the stuck bidders' own candidate lists widen beyond the
		// rejected move. Any successful hop resets the ladder.
		if b.roundHops > 0 {
			b.failStreak = 0
		} else {
			b.failStreak++
		}
		switch {
		case b.failStreak >= 2*failStreakEscalate:
			tier = msg.TierDesperate
		case b.failStreak >= failStreakEscalate:
			tier = msg.TierRetreat
		}
	}
	b.startElection(env, tier)
}

// finish ends the run: the Root floods Finished and reports termination.
func (b *BlockCode) finish(env exec.Env, success bool) {
	if b.done {
		return
	}
	b.done = true
	b.sendToNeighbors(env, &msg.Message{
		Type: msg.TypeFinished, Round: b.round, Success: success,
	}, lattice.None)
	if b.sh.finished.CompareAndSwap(false, true) {
		b.sh.emit.emit(Event{Kind: EventTerminated, Success: success, Rounds: b.roundsRun})
		if b.sh.term != nil {
			b.sh.term.Finish(success, b.roundsRun)
		}
	}
}

// onFinishedFlood spreads termination; every block shuts down.
func (b *BlockCode) onFinishedFlood(env exec.Env, from lattice.BlockID, m *msg.Message) {
	b.done = true
	b.sendToNeighbors(env, m, from)
}

// OnMoved implements exec.BlockCode: the block was displaced. For a hop the
// block itself initiated, the fresh no-return memory must survive; for a
// passive carry displacement the memory refers to a stale origin and clears.
// In batch rounds a displacement also re-pushes the round's floods: the
// block's port adjacencies just changed.
func (b *BlockCode) OnMoved(env exec.Env, from, to geom.Vec) {
	b.liftSuppression()
	if b.sh.cfg.parallelK() > 1 {
		b.repushFloods(env)
	}
	if b.pendingOwnMove {
		b.pendingOwnMove = false
		return
	}
	b.hasNoReturn = false
}

// OnNeighborhoodChanged implements exec.BlockCode: a sensed cell changed
// through someone else's motion, so every cached conclusion — immobility
// and the no-return memory — is stale. In batch rounds the change may also
// mean a new adjacency, so the round's floods are re-pushed (see
// repushFloods).
func (b *BlockCode) OnNeighborhoodChanged(env exec.Env) {
	b.liftSuppression()
	b.hasNoReturn = false
	if b.sh.cfg.parallelK() > 1 {
		b.repushFloods(env)
	}
}

// liftSuppression clears the retry backoff in response to external change
// (a successful mover anywhere, a sensed-neighbourhood change, or this
// block's own displacement). A batch-run block deep in a failure streak
// only shortens its backoff instead: its hops were rejected by the
// ensemble-connectivity guard, which local change rarely lifts, and a full
// clear would let it monopolise elections again (see hopFailStreak).
func (b *BlockCode) liftSuppression() {
	if b.sh.cfg.parallelK() > 1 && b.hopFailStreak > 1 {
		if b.suppressedFor > 0 {
			b.suppressedFor--
		}
		return
	}
	b.suppressedFor = 0
}

// suppressionRounds is the retry backoff after a fully rejected hop: the
// block bids neutral for this many elections before trying again.
const suppressionRounds = 3

// emptyLadderRetries is how many consecutive empty tier ladders the Root
// tolerates before declaring a blocking; retries outlast the suppression
// backoff so a transiently suppressed block gets to bid again.
const emptyLadderRetries = 4

// failStreakEscalate is how many consecutive all-rejected batch rounds the
// Root tolerates at TierDecreasing before escalating the election tier (and
// twice that before TierDesperate); it outlasts one full suppression
// rotation of the stuck bidders, so transient rejections never escalate.
const failStreakEscalate = 4

// ownCandidate evaluates this block's bid per eqs. (8)-(10): neutral when
// frozen, suppressed or moveless; otherwise its hop count to O, stamped
// with the position and cut-vertex bit the Root's parallel-moves
// interference filter consumes (the latter only sampled when a batch run
// can use it — the serial protocol never reads it).
func (b *BlockCode) ownCandidate(env exec.Env, round uint32, tier msg.Tier) election.Candidate {
	cfg := &b.sh.cfg
	cfg.Counters.DistanceComputations.Add(1)
	pos := env.Position()
	suppressed := b.suppressedFor > 0
	if suppressed {
		b.suppressedFor--
	}
	hasMove := false
	var planned *CandidateMove
	if !cfg.Frozen(pos) && !suppressed {
		cands := b.plan(env, pos, tier)
		hasMove = len(cands) > 0
		if hasMove && cfg.parallelK() > 1 {
			planned = &cands[0]
			b.bidRound, b.bidPos, b.bidApp, b.hasBid = round, pos, planned.App, true
		}
	}
	d := cfg.distanceValue(pos, hasMove)
	if d == msg.InfiniteDistance {
		return election.Neutral()
	}
	cut := false
	if cfg.parallelK() > 1 {
		cut = env.CutVertex()
	}
	c := election.Candidate{
		Cand:     msg.Cand{ID: b.id, Distance: d, Pos: msg.CellOf(pos), Cut: cut},
		Priority: election.PriorityFor(cfg.TieBreak, round, b.id),
	}
	if planned != nil {
		// Stamp the bid with the best plan's destination and cell footprint,
		// so the Root's admission ladder can reason about interference
		// exactly (only computed when a batch run can consume it — the
		// serial protocol's bids stay bit-identical to the paper's).
		c.To = msg.CellOf(planned.To)
		c.Fp = moveFootprint(planned.App)
	}
	return c
}

// moveFootprint compiles a planned application's cell footprint into the
// wire form the admission ladder consumes: Write = the From/To cells of
// every elementary move (the cells whose occupancy changes), as a window
// bitboard anchored at the application's anchor. Rules outside the compiled
// compact form (none in the standard library) yield an empty footprint,
// which the ladder treats as unknowable interference — the candidate is
// never co-admitted.
func moveFootprint(app rules.Application) msg.Footprint {
	mm := app.Rule.MM
	if !mm.Compact() {
		return msg.Footprint{}
	}
	r := mm.Radius()
	size := 2*r + 1
	fp := msg.Footprint{Anchor: msg.CellOf(app.Anchor), Radius: uint8(r)}
	for _, m := range app.Rule.Moves {
		fp.Write |= windowBit(m.From, r, size) | windowBit(m.To, r, size)
	}
	return fp
}

// windowBit maps a window-relative cell to its bitboard bit (row*size+col in
// display order, row 0 = north — the compiled rule system's layout).
func windowBit(rel geom.Vec, r, size int) uint64 {
	return 1 << uint((r-rel.Y)*size+(rel.X+r))
}

// sendToNeighbors sends *m to every adjacent block except `except`,
// returning the number of messages sent.
func (b *BlockCode) sendToNeighbors(env exec.Env, m *msg.Message, except lattice.BlockID) int {
	nt := env.Neighbors()
	return sendTo(env, m, &nt, except)
}

// sendTo sends *m through every port of nt that holds a block other than
// `except`, and clears from nt each port that refused it (on the goroutine
// runtime a neighbour can move away between the table read and the send).
// It returns the number of messages sent. An Activate names each receiver
// in turn in its Son, which sendTo writes into *m: both callers that send
// one build it for this send alone.
func sendTo(env exec.Env, m *msg.Message, nt *[geom.NumDirs]lattice.BlockID, except lattice.BlockID) int {
	sent := 0
	for d, nb := range nt {
		if nb == lattice.None || nb == except {
			continue
		}
		if m.Type == msg.TypeActivate {
			m.Son = nb
		}
		if env.Send(nb, *m) != nil {
			nt[d] = lattice.None
			continue
		}
		sent++
	}
	return sent
}

var _ exec.BlockCode = (*BlockCode)(nil)
