// Staged brownout: a deterministic load-shedding ladder driven by the
// pressure score. Instead of a binary healthy/shedding flip, the node
// degrades scope in stages — first the optional work (hedges, trace
// sampling), then the expensive reads, then builds, finally everything —
// and recovers the same ladder downward with hysteresis, so a node
// hovering at a threshold never flaps between serving and shedding.
//
// The stage semantics (enforced by the server, published as
// rqp_brownout_stage):
//
//	0  normal
//	1  disable hedging, drop trace sampling
//	2  shed expensive read endpoints (sweeps, atlas)
//	3  shed session builds; admit runs only
//	4  full shed (health, metrics and fleet endpoints still served)

package guard

import "sync"

// BrownoutStages is the number of degradation stages above normal.
const BrownoutStages = 4

// stageEnter holds the pressure thresholds at which each stage engages:
// stageEnter[i] is the minimum pressure for stage i+1.
var stageEnter = [BrownoutStages]float64{0.5, 0.75, 0.9, 0.97}

// exitMargin is the hysteresis band: the controller only considers leaving
// stage i once pressure drops below stageEnter[i-1]-exitMargin.
const exitMargin = 0.1

// BrownoutConfig tunes the hysteresis. The zero value takes the default
// noted on the field.
type BrownoutConfig struct {
	// DwellTicks is how many consecutive Observe ticks pressure must stay
	// below a stage's exit threshold before the controller steps down one
	// stage — the time-domain half of the hysteresis. Default 3.
	DwellTicks int
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.DwellTicks < 1 {
		c.DwellTicks = 3
	}
	return c
}

// Brownout is the staged controller. Feed it one pressure sample per tick
// via Observe; read the current stage anywhere with Stage. A nil controller
// is permanently at stage 0 — the single-node default.
type Brownout struct {
	cfg BrownoutConfig

	mu    sync.Mutex
	stage int
	calm  int // consecutive ticks below the current stage's exit threshold
}

// NewBrownout returns a stage-0 controller.
func NewBrownout(cfg BrownoutConfig) *Brownout {
	return &Brownout{cfg: cfg.withDefaults()}
}

// target maps a pressure sample to the stage it calls for, ignoring
// hysteresis: the highest stage whose enter threshold the sample clears.
func (b *Brownout) target(pressure float64) int {
	t := 0
	for i, th := range stageEnter {
		if pressure >= th {
			t = i + 1
		}
	}
	return t
}

// Observe feeds one pressure sample and returns the stage after the tick
// plus whether it changed. Ascent is one stage per tick toward the target
// (a pressure spike walks the ladder, it doesn't jump to full shed off one
// sample); descent requires DwellTicks consecutive samples below the
// current stage's exit threshold (enter minus margin) and also steps one
// stage at a time.
func (b *Brownout) Observe(pressure float64) (stage int, changed bool) {
	if b == nil {
		return 0, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	old := b.stage
	if t := b.target(pressure); t > b.stage {
		b.stage++
		b.calm = 0
		return b.stage, true
	}
	if b.stage > 0 {
		exit := stageEnter[b.stage-1] - exitMargin
		if pressure < exit {
			b.calm++
			if b.calm >= b.cfg.DwellTicks {
				b.stage--
				b.calm = 0
			}
		} else {
			b.calm = 0
		}
	}
	return b.stage, b.stage != old
}

// Stage reports the current stage; 0 on a nil controller.
func (b *Brownout) Stage() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stage
}
