// Package repro is a from-scratch Go reproduction of
//
//	D. El Baz, B. Piranda, J. Bourgeois,
//	"A Distributed Algorithm for a Reconfigurable Modular Surface",
//	IEEE IPDPSW 2014, pp. 1591-1598, DOI 10.1109/IPDPSW.2014.178.
//
// The Smart Blocks modular surface reconfigures itself so that a shortest
// path of blocks links the part input I to the part output O, driven by
// iterated distributed elections over a Dijkstra-Scholten activity graph,
// under the support-constrained motion rules of the paper's §IV.
//
// In each election the Root floods Activate messages over the blocks'
// Neighbor Tables. A block engages on its first Activate, whose sender
// becomes its father, bids, and activates its other neighbours; once each
// of them has acknowledged, it acks its father with the best bids of its
// subtree, and the Root's last ack decides the round. A block that is
// already engaged does nothing with a further Activate, and sends nothing
// either: its own Activate crossed that one on the same edge, and each of
// the two acknowledges the other (Chang's echo). So a tree edge carries an
// Activate and an Ack per round, and any other edge two Activates. The
// acknowledgement the paper sends for a redundant activation is a neutral
// Ack, which remains only for an Activate that crossed none: one of an
// older round, or from a neighbour the block did not activate. Healthy runs
// never send one (core.Counters.NeutralAcks).
//
// The library lives under internal/: geometry (geom), the Table I/II event
// system (event), Motion/Presence matrices (matrix), the rule library with
// its Fig. 7 XML format (rules), the surface physics (lattice), the
// deterministic discrete-event engine (sim) and the goroutine runtime
// (runtime), the Dijkstra-Scholten tracker (dsterm), the election value
// layer (election), the algorithm itself (core), the free-motion baseline
// (baseline), the shared scenario registry (scenario), tracing, statistics,
// the part-conveying simulation (convey), the evaluation harness
// (experiments) and the HTTP service front-end (server).
//
// # Compiled motion validation
//
// The MM⊗MP overlap of §IV — the innermost kernel of every motion
// validation — runs on a bitboard-compiled form of the rule system. Each
// Motion Matrix carries two packed uint64 masks (cells Table II requires
// occupied / empty, wildcards masked out), maintained in sync with the
// code grid; the lattice keeps a row-bitset occupancy mirror of the id
// grid, from which Surface.OccWindow extracts a block's sensing window
// with a handful of word operations. Library.Add moves each (rule, mover)
// placement's masks into the frame of the sensing window centred on the
// mover, so a plan reads that window once, through exec.Env.SenseWindow
// on either engine, and validates every placement against it with two
// AND/compare instructions; rule enumeration (Library.ApplicationsFor /
// ApplicationsOn) allocates nothing until a match is found. The original
// matrix objects remain the display, XML and teaching API; differential
// property tests pin the compiled matcher to the reference entry-wise
// operator for every library rule under all D4 transforms
// (internal/rules/compiled_test.go) and the one-read enumeration to the
// per-cell one (internal/rules/oneread_test.go). Run
// `go run ./cmd/sbbench -json` for a machine-readable snapshot of the
// hot-path kernel timings; CI diffs that record against the previous PR's
// artifact (cmd/benchdiff) and fails on >10% hot-path regressions.
//
// # The run layer: core.Engine sessions
//
// One session API drives both execution backends. core.NewEngine(lib,
// opts...) builds an immutable, reusable engine over a rule library;
// functional options hold the engine-wide choices: the backend (core.DES,
// the deterministic discrete-event simulator, or core.Async, the goroutine
// runtime), the seed, the DES latency model, the async wall-clock bound, a
// fault-injection factory wrap and an Observer.
// A run's own settings have one home each: the batch width K and the
// election budget live in core.Config (ParallelMoves, MaxRounds), and the
// surface picks its band layout from its width (lattice.BandWidth), so no
// caller sets one. Engine.Run(ctx, surf, cfg) executes Algorithm 1 under a
// context — cancellation and deadlines stop the backend between events, so
// the surface always comes back connected and fully rolled back — and
// returns the unified Result with the backend's virtual-time and event
// metrics filled in (virtual ticks on the DES, wall-clock nanoseconds and
// dispatched events on the runtime). Both backends implement the same
// three-method Backend seam (Boot, Drive, Metrics); nothing outside their
// own packages constructs sim.Engine or runtime.Engine directly. Both
// answer exec.Env from the one exec.World that Run builds per session, so
// ports, sensing, motion and its notifications have one model. The model
// delivers one message per event, as if each reception buffer of the
// paper's memory organisation (§V-B, Fig. 8) were drained on arrival.
//
// A session streams structured events — round started, election decided,
// motion applied, termination, message totals — to a core.Observer.
// trace.Recorder records storyboards from the stream, stats.SessionSummary
// aggregates it, faults.Monitor watches fault studies through it, and
// convey.Builder bridges a successful session straight into the
// part-conveying phase. Delivery is serialised by the engine, so observers
// need no locking even on the goroutine backend or across concurrent Run
// calls on one engine.
//
// Engine.Run is the only entry point. An Engine is safe for concurrent
// use, and a DES run is a pure function of its surface, Config and seed,
// so a sweep is one Run per scenario, serial or each on a goroutine of its
// own (BenchmarkLargeSurfaceBatch runs 16, GOMAXPROCS at a time).
//
// # Parallel moves: batch election rounds
//
// The paper's protocol elects exactly one block per round, so
// reconfiguration time is Θ(n) rounds even when far-apart blocks could move
// simultaneously. Config.ParallelMoves = k turns each election into a
// batch: the Dijkstra-Scholten fold carries a top-K candidate list instead
// of a single (distance, id) maximum — each ack's candidates record the
// bidder's position, whether it is a cut vertex of the ensemble
// (exec.Env.CutVertex, answered by the lattice's articulation cache), and
// the planned destination and cell footprint of its best move
// (msg.Footprint: the From/To cells the move writes, as a window bitboard)
// — and the Root admits up to k winners through a two-pass footprint
// admission ladder:
//
// Pass 1 admits window-disjoint winners (wave stamp 0): a candidate joins
// when no admitted winner's written cells fall inside its sensing window
// and its written cells fall inside no admitted winner's window
// (msg.Footprint.TouchesWindow). An executor replans over its whole window
// at hop time, so writes-versus-window disjointness is exactly what makes
// concurrent hops reproduce their bids and commute; the coarser test it
// replaced (pairwise Chebyshev position distance > 2 x the sensing radius)
// kept whole windows apart and capped realised parallelism near 2-3
// moves/round regardless of k. Beyond the first winner, cut vertices are
// excluded (their departures could interact through the connectivity
// guard).
//
// Pass 2 fills the remaining slots with conveyor waves (stamps 1, 2, ...):
// a candidate whose writes clash with an admitted winner's window still
// joins when every winner it is coupled with is a same-direction mover
// strictly ahead of it along the hop direction — a staircase descent is a
// conveyor, not a contention set — and the whole planned prefix validates
// as one batched what-if on the connectivity overlay
// (lattice.Surface.ValidateMoveSet, shard-local, nothing mutated). A
// head-to-tail write overlap is legal only as the train handoff: the
// follower enters exactly the cell its predecessor vacates. Wave members
// carry their stamp in their GO entry and hop only on the Root's release,
// which it sends once every lower-stamped winner has reported MoveDone, so
// coupled hops execute in admission order and the round stays equivalent
// to a serial execution.
//
// Every batch message travels by one routing rule. A same-batch motion can
// sever the father/son tree mid-round, so the Root does not route the
// batch's Selects down the tree: it sends each admitted winner its own GO
// entry (a Select carrying the winner's wave stamp) towards the cell the
// winner bid from, and each wave release towards its member's cell. A
// winner does not move before its entry arrives, and admission never lets
// one winner's planned move displace another, so the cell is a fixed
// target. At every k a hop's MoveDone report travels the other way,
// towards I. Each holder hands the message to one neighbour strictly
// nearer its target (blocks know their cell and I, Assumption 2, and the
// Root knows each winner's cell from its bid), and only a dead end — a
// block with no nearer neighbour, or a block on the target that is not the
// recipient — floods it, which reaches the recipient because the ensemble
// stays connected (Remark 1). Blocks re-push a dead end's flood to their
// neighbours whenever their local topology changes. Batch winners send no
// SelectAck; the Root opens the next round once every winner's report
// arrived, carries the round's count of successful hops on the next
// Activate, and each block lifts its suppression backoff once per success
// before it bids.
// One guard backs the whole ladder at the physical layer: batch
// interleavings (unlike any serial schedule) can pinch off an enclosed
// pocket of empty cells that no rule application can ever reach again, so
// under ParallelMoves > 1 the lattice rejects motions that seal such a
// cavity (lattice.Constraints.ForbidCavity, a bounded 8-connected scan of
// the empty region around the destination) — batch runs stay inside the
// serially-reachable surface family.
//
// The default k = 1 is the paper-faithful serial protocol: a golden
// differential test (internal/core/testdata/serial_golden.json, recorded
// on the pre-refactor commit) pins winner sequences, round/hop totals and
// final surfaces across seeds, scenarios and both backends. At k = 4 on
// wide surfaces the batch pipeline multiplies moves-per-round (the
// Observer's ElectionDecided events carry the move-set; stats, trace and
// Result report the realised parallelism) and cuts rounds-to-completion —
// on the 71-column ridge benchmark the serial protocol livelocks between
// the two symmetric flanks while k = 4 completes outright (BENCH_4.json
// records both). Every batch round preserves connectivity: each hop is
// still validated against the live surface by the physical layer.
//
// # Incremental connectivity and atomic application
//
// The other half of motion validation is the Remark 1 invariant: no motion
// may disconnect the ensemble. The lattice first asks the mover's 3×3 ring
// (internal/lattice/ring.go): while the ensemble is known to be one
// component, a block whose side neighbours lie in one run of consecutive
// occupied cells of its 8-cell ring can leave without cutting anything off
// (the simple-point test of digital topology for 4-connected blocks and an
// 8-connected empty region), and the move is safe when its destination
// touches a block. The ring lies inside every block's sensing window, so
// most Remark 1 verdicts are decided from what the mover could sense, with
// no global structure read and none rebuilt after the last motion. When
// the ring cannot decide, the lattice answers from an incrementally
// maintained articulation-point cache over its occupancy bitsets
// (internal/lattice/connectivity.go) rather than by cloning the surface and
// rerunning a DFS per candidate: a connectivity-constrained verdict is
// O(window) and allocation-free for a single-displacement motion (every
// slide, carry and teleport) whose mover is not a cut vertex, and a
// cut-vertex mover, a multi-cell delta or a fault-injected fragmented
// surface takes a what-if Tarjan pass with the delta overlaid, on reusable
// scratch, over the bands the delta touches. Surface.ConnStats counts which
// rung answered each verdict, and core.Result carries one run's counts.
// Connected() remains the reference oracle, with a property test pinning
// the cache to it across randomized motion/fault sequences. Surface.Apply
// is atomic under failure: Validate replays multi-step move schedules
// against the evolving occupancy before anything mutates, and the executor keeps an undo log, so a rejected
// application leaves no partial state behind. The same undo log now backs
// the Remark 1 blocking veto: a candidate motion is applied in place,
// inspected, and rolled back — the clone-and-enumerate lookahead is gone,
// and the per-candidate veto is allocation-free steady-state
// (TestLookaheadVetoZeroAllocs pins it at 0 allocs).
//
// # Sharded surfaces: column bands and boundary composition
//
// The articulation cache is a layout of column bands, each owning a lazy
// band-local Tarjan core (internal/lattice/shard.go). At the paper's §VI
// scale (10^6-10^7 modules) one full-width band would be the last O(N)
// cost on the event path: one occupancy mutation invalidates it, and the
// next constrained verdict pays a full-surface Tarjan rebuild. So
// lattice.NewSurface partitions a surface w columns wide into
// ceil(w/lattice.BandWidth) equal column bands of at most 150 columns,
// composed globally through a boundary contraction graph (contraction.go):
// one node per band-local component, one union-find edge per occupied cell
// pair facing each other across an internal band boundary. Every registry
// scenario at its default parameters is narrower than that and keeps one
// band; Surface.EnableSharding(n) overrides the layout for the tests and
// reference kernels that compare band counts. A mutation dirties one band
// plus the edge lists its labels feed, so the steady-state per-event cost
// is O(bandWidth x height) — a constant, since the band width is bounded,
// regardless of how many bands the surface grows (BENCH_5.json records the
// flat 5e5 -> 8e6 sweep, and BENCH_10 an 18x cheaper rebuild at 2e6 on
// 150-column bands than on one band).
//
// Queries climb a ladder of three exact rungs — the lower rungs only answer
// when their verdict cannot be wrong, otherwise they fall through: (0) the
// mover's 3×3 ring, O(1), while the occupancy is known to be one
// component, which answers "stays connected" or "not a cut vertex" without
// reading a band core; (1) a band core's articulation bit, O(window), for a
// mover that is not a band-local cut vertex and has no block across a band
// boundary (on one band the core spans the surface, so its bit answers a
// cut-vertex query either way); (2) the what-if overlay — what-if band
// cores for the bands the delta actually touches, composed with every
// untouched band's cached labels and boundary edges by the same union-find
// that composes the cached global count — exact for arbitrary deltas and
// never O(surface) once the surface has more than one band. The band count
// therefore changes where verdicts are computed, never what they are: the golden differential and a band-edge-concentrated property test
// over band counts from one up pin the ladder to the Connected() oracle,
// and runs over several bands are bit-identical to one-band runs.
//
// # Reconfiguration as a service: cmd/sbserver
//
// internal/server puts the session API behind a long-running HTTP front-end
// (cmd/sbserver) so many concurrent clients can submit reconfiguration runs
// against one warm rule library. POST /v1/runs takes a RunSpec — a scenario
// name from the shared internal/scenario registry plus integer params, the
// parallel-moves width k, a seed and a round budget, exactly the inputs
// that change a DES result — and each admitted request runs at once on its
// own goroutine as one Engine.Run on the DES, so it is answered at its own
// run end. Replica and gateway decode the body with one strict decoder
// (speckey.Decode): any other field, a negative value or data after the
// object gets a 400. The goroutine runtime stays a library backend
// (examples/asyncrt, smartconvey -engine async) and is never served.
// Admission is a bounded pending count per class, and it is the only bound
// on runs in flight: beyond the limit the server answers 429 immediately
// rather than queueing unboundedly. Every engine run is a flight — the server's record
// of one run, its event history and the clients attached to it — whose
// context derives from the server's run context: when a run's last client
// disconnects (or Shutdown forces it) that run alone is cancelled
// mid-flight, and the engine hands back a connected, fully rolled-back
// surface while every other run completes untouched.
//
// A run streams NDJSON by default (?stream=sse or an Accept:
// text/event-stream header switches framing, ?stream=none answers with the
// single result record): the session's core.Observer events — round
// started, election decided with the admitted move-set, motion applied,
// termination, message totals — as they happen, through the flight's
// unbounded append-only event history (pooled backing arrays) so a slow
// reader never stalls the engine, terminated by a result (or error)
// record.
//
// DES runs are pure functions of their spec, and the service exploits
// that twice. A content-addressed result cache (byte-accounted LRU,
// -cache-bytes budget) memoizes each completed run under its canonical
// key — scenario params default-filled in declaration order, then k, seed
// and the round budget, with k<=1 and seed 0 normalized
// (fig10{}|k=1|seed=1|rounds=0) — so an identical spec replays the
// recorded events and result byte-identically without touching the
// engine; the X-Cache
// response header says how a run was served (hit, miss, bypass,
// coalesced) and ?cache=bypass opts out with a private flight that no
// other request joins and no cache entry records. Concurrent identical
// specs coalesce in flight (singleflight): the first request leads the
// one engine run and every follower tails its append-only event history
// from index zero, with the run's lifetime tied to the set of attached
// clients — it cancels only when the last one disconnects. Admission is a
// fixed pending limit per priority class: interactive requests may hold
// -queue slots and ?class=bulk requests -bulk-share of them (half, at
// least one), so parameter sweeps are shed as 429s before they can starve
// interactive traffic.
//
// Every request is timed through three phases (enqueue → run → respond)
// aggregated as fixed-bucket streaming histograms with interpolated
// p50/p95 in /metrics, alongside per-class request counters, cache and
// admission state, and the engine-level stats.SessionSummary (successes,
// hops, rounds, moves-per-round and wave histograms), as JSON or
// ?format=prometheus. Shutdown is graceful: SIGTERM flips /healthz to 503
// and refuses new work, in-flight runs drain under a deadline, and past
// the deadline the server force-cancels their shared run context —
// rollback semantics again guarantee clean surfaces, and a force-cancelled
// ?stream=none run answers 503. cmd/sbload is the closed-loop load
// generator (N clients x M runs each, full-stream reads, per-class and
// X-Cache tallies, Zipf spec mixes, latency percentiles).
// The end-to-end benchmark (BENCHMARK.json, e2ebench/) measures the
// service: serve_fig10_cold times engine runs through one replica and
// gate_fig10_hot times cache hits through sbgate.
// cmd/sbserver/README.md has a curl quickstart.
//
// # Scaling out: cmd/sbgate
//
// internal/gate scales the service tier horizontally: cmd/sbgate is a
// streaming reverse proxy over N sbserver replicas that routes each run by
// its canonical spec key (internal/server/speckey, the same normalization
// the result cache indexes by) on a consistent-hash ring with virtual
// nodes, so identical specs always land on the same replica and the
// fleet's caches partition the working set instead of replicating it —
// per-replica cache budget times N of effective capacity. The gateway
// proxies the NDJSON/SSE stream unbuffered with client-disconnect
// propagation, stamps X-Replica and X-Spec-Key on every response, and
// names a peer (X-Peer-Probe) that a replica missing a deterministic run
// probes over GET /v1/peek to adopt a still-warm recording (X-Cache:
// peer) before paying for the engine — replicas opt in with -peer-probe,
// since a client that can reach them directly could name a peer it
// controls. Draining replicas (healthz 503) leave the rotation in-band: a
// refused deterministic run provably never started, so the gateway
// retries it on the ring successor and a scale-down loses zero requests
// — gate_drain_zero_loss in BENCH_N.json
// gates completed at 100%, and gate_affinity_hot gates that the
// affinity-routed fleet answers every request of a working set from cache
// where a single replica with the same cache budget misses. The gateway's
// /metrics merges replica phase histograms bucket-wise exactly (the fixed
// bucket layout makes fleet p50/p95 well-defined) alongside per-replica
// routing state, as JSON or Prometheus; cmd/sbload -targets spreads the
// same closed-loop load round-robin over bare replicas for the
// affinity-blind baseline.
// cmd/sbgate/README.md has a two-replica quickstart.
//
// Start with examples/quickstart, or run:
//
//	go run ./cmd/smartconvey           # build a conveyor, watch it work
//	go run ./cmd/sbbench -exp all      # regenerate the paper's evaluation
//	go run ./cmd/sbrules -list         # inspect the motion-rule system
//
// This comment is the module map. sbbench -list names the experiment
// behind every paper artefact, sbbench -exp all prints each one's measured
// rows next to the paper's claims, and sbbench -exp envelope maps the
// solvable envelope of the greedy election.
package repro
