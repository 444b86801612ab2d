package core

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
	"repro/internal/sim"
)

// Result summarises one reconfiguration run: the outcome of Algorithm 1
// plus every metric the paper's remarks quantify.
type Result struct {
	// Success is the Root's verdict: a block reached O.
	Success bool
	// PathBuilt is the harness's independent check that the occupied cells
	// realise a shortest Manhattan path from I to O.
	PathBuilt bool
	// Rounds is the number of completed elections (Algorithm 1 iterations).
	Rounds int
	// Hops is the number of elementary block moves (Remark 4; the "55 block
	// moves" metric of §V-D).
	Hops int
	// Applications is the number of motion-rule applications executed
	// (carries move two blocks in one application).
	Applications int
	// MessagesSent is the total block-to-block message count (Remark 3).
	MessagesSent uint64
	// MessagesByType splits MessagesSent by message type, indexed by
	// msg.Type.Slot (entry 0 counts messages of an invalid type).
	MessagesByType [msg.NumTypes + 1]uint64
	// WireBytes is the encoded size of every message sent, summed from
	// msg.Message.WireSize.
	WireBytes uint64
	// MessagesDropped counts messages the backend never delivered: a
	// receiver with no host on the DES, a full block event channel on the
	// goroutine runtime (0 in a healthy run).
	MessagesDropped uint64
	// Counters is the algorithm-level metric snapshot (Remark 2 et al.).
	Counters CounterValues
	// Blocks is the number of blocks on the surface.
	Blocks int
	// PathLength is the Manhattan distance (hops) between I and O.
	PathLength int
	// VirtualTime is the run's completion time in the backend's clock:
	// virtual ticks on the DES backend, elapsed wall-clock nanoseconds on
	// the goroutine runtime.
	VirtualTime sim.Time
	// Events is the number of engine events processed: scheduler events on
	// the DES backend, dispatched per-block events on the goroutine
	// runtime.
	Events uint64
	// Conn counts the run's connectivity work on the surface: which rung of
	// the lattice's ladder answered each Remark 1 verdict, wave step and
	// cut-vertex query, and the Tarjan band passes and cavity scans.
	Conn lattice.ConnStats
}

// MovesPerRound is the realised batch parallelism of the run: admitted
// election winners per completed election (1.0 under the serial protocol).
func (r Result) MovesPerRound() float64 {
	if r.Counters.Elections == 0 {
		return 0
	}
	return float64(r.Counters.MovesElected) / float64(r.Counters.Elections)
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("success=%t path=%t N=%d d=%d rounds=%d hops=%d apps=%d moves/round=%.2f msgs=%d dist-comps=%d",
		r.Success, r.PathBuilt, r.Blocks, r.PathLength, r.Rounds, r.Hops,
		r.Applications, r.MovesPerRound(), r.MessagesSent, r.Counters.DistanceComputations)
}

// MaxSurfaceSide is the largest width and height of a surface a run
// accepts. Messages carry every position as a msg.Cell of two int16
// coordinates, and a footprint's anchor can lie up to rules.MaxWindowRadius
// cells past the surface's edge, so this bound keeps every cell a message
// names exact.
const MaxSurfaceSide = 1<<15 - rules.MaxWindowRadius

// ValidateInstance checks the preconditions of Assumption 2 on a surface:
// the ensemble is connected, a block occupies I, O is a free surface cell,
// and (unless the instance is the degenerate I == O) the blocks are not all
// collinear. It also rejects a surface wider or taller than MaxSurfaceSide.
func ValidateInstance(surf *lattice.Surface, cfg Config) error {
	return validateInstance(surf, cfg, surf.Connected)
}

// validateInstance is ValidateInstance with Assumption 1 decided by
// connected, which runs only once the cheaper checks before it passed.
func validateInstance(surf *lattice.Surface, cfg Config, connected func() bool) error {
	if surf.Width() > MaxSurfaceSide || surf.Height() > MaxSurfaceSide {
		return fmt.Errorf("core: the %dx%d surface has a side over %d cells, more than a message position can address",
			surf.Width(), surf.Height(), MaxSurfaceSide)
	}
	if !surf.InBounds(cfg.Input) || !surf.InBounds(cfg.Output) {
		return fmt.Errorf("core: I=%s or O=%s outside the %dx%d surface",
			cfg.Input, cfg.Output, surf.Width(), surf.Height())
	}
	if !surf.Occupied(cfg.Input) {
		return fmt.Errorf("core: no Root block on I=%s (Assumption 2)", cfg.Input)
	}
	if cfg.Input != cfg.Output && surf.Occupied(cfg.Output) {
		return fmt.Errorf("core: O=%s already occupied", cfg.Output)
	}
	if !connected() {
		return fmt.Errorf("core: initial ensemble not connected (Assumption 1)")
	}
	if surf.NumBlocks() >= 2 && cfg.Input != cfg.Output {
		positions := surf.Positions()
		sameX, sameY := true, true
		for _, p := range positions[1:] {
			if p.X != positions[0].X {
				sameX = false
			}
			if p.Y != positions[0].Y {
				sameY = false
			}
		}
		if sameX || sameY {
			return fmt.Errorf("core: initial blocks form a single line or column (excluded by Assumption 2)")
		}
	}
	return nil
}
