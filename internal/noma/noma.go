// Package noma registers a NOMA-flavoured power-level Q-learning MAC: QMA's
// engine (internal/core) with its action space extended by a transmit-power
// dimension, the direction of the multi-power level Q-learning line of work
// for NOMA mMTC random access (arXiv:2301.05196) applied to QMA's slot
// structure.
//
// Each node learns over the cross product of QMA's three actions — backoff,
// CCA-then-send, send — and K discrete power levels (level ℓ transmits
// ℓ·LevelStepDB dB below the reference power; core.Config.Levels). On a
// capture-enabled medium (radio.Medium.SetCaptureThreshold) two deliberately
// different power levels can share a subslot: the strong frame decodes
// through SINR capture while the weak one fails softly. The reward function
// is power-aware in both directions:
//
//   - Success at a reduced level earns core.LevelSuccessBonus per level on
//     top of QMA's Eq. 7/8 rewards (succeeding with less power is strictly
//     better: it spends less energy and leaves headroom under the capture
//     threshold for a neighbour).
//   - A failed transmission during whose ACK wait a foreign ACK was
//     overheard is rewarded core.RewardCapturedOver instead of the full
//     collision punishment: the overheard ACK is the transmitter-side
//     evidence that the subslot carried a completed (captured) transaction
//     rather than a mutual kill, so the subslot remains worth contesting at a
//     different power level. This is the observable proxy for "my frame was
//     captured over" — the transmitter cannot see the receiver-side SINR
//     directly.
//
// The engine is core.Engine itself, so the ticker, cautious startup,
// exploration and everything below channel access — queues, ACKs, retries,
// forwarding — are shared with QMA. With K=1 the action space is QMA's three
// actions, plus the captured-over reward shaping.
package noma

import "qma/internal/core"

// Defaults for the power dimension.
const (
	// DefaultLevels is K, the number of power levels.
	DefaultLevels = 2
	// MaxLevels bounds K (core.MaxLevels).
	MaxLevels = core.MaxLevels
	// DefaultLevelStepDB is the power reduction per level.
	DefaultLevelStepDB = 6.0
)
