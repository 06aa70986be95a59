// Package core implements QMA itself (§4): the Q-learning channel access
// engine that runs Algorithm 1 over the CAP subslots, the reward function of
// Eqs. 6–8, cautious startup (§4.3) and parameter-based exploration (§4.2).
// It embeds the shared MAC base (internal/mac), so everything except the
// access discipline — queues, ACKs, retries, forwarding — is identical
// between QMA and the CSMA/CA baselines.
//
// The same engine optionally learns over K transmit power levels
// (Config.Levels): each of the three action kinds is crossed with the
// levels, and the reward gains the power-aware shaping of RewardCapturedOver
// and LevelSuccessBonus. The NOMA protocol (internal/noma) is this engine
// with K levels; at K=1 it is exactly QMA.
package core

import "fmt"

// Action is one of QMA's three channel access actions (§4).
type Action uint8

const (
	// QBackoff waits for the next subslot.
	QBackoff Action = iota
	// QCCA performs a clear channel assessment, transmits on an idle channel
	// and backs off to the next subslot otherwise.
	QCCA
	// QSend transmits immediately without assessing the channel (the
	// high-risk, high-reward priority action).
	QSend
	// NumActions is the number of action kinds, and the size of the action
	// space at one power level. With K levels the learner's actions are
	// flattened kind-major, kind·K + level, NumActions·K in all.
	NumActions = 3
)

// MaxLevels bounds the number of transmit power levels an engine learns
// over: with a 6 dB step, 4 levels span 18 dB — about the programmable range
// of the AT86RF231 (+3 to −17 dBm).
const MaxLevels = 4

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case QBackoff:
		return "QBackoff"
	case QCCA:
		return "QCCA"
	case QSend:
		return "QSend"
	default:
		return fmt.Sprintf("Action(%d)", uint8(a))
	}
}

// Rewards of Eqs. 6–8. The values balance the three actions against each
// other; the paper stresses they are the result of extensive experimentation
// (e.g. raising RewardSendSuccess to 8 makes every node spam QSend).
const (
	// RewardBackoffOverhear is Eq. 6: a DATA or ACK frame was overheard
	// while backing off — the subslot is owned by a neighbour.
	RewardBackoffOverhear = 2
	// RewardBackoffIdle is Eq. 6: nothing was overheard.
	RewardBackoffIdle = 0
	// RewardCCASuccessTx is Eq. 7: CCA idle and the transmission succeeded.
	RewardCCASuccessTx = 3
	// RewardCCAFailedTx is Eq. 7: CCA idle but the transmission failed.
	RewardCCAFailedTx = -2
	// RewardCCABusy is Eq. 7: the CCA found the channel busy.
	RewardCCABusy = 1
	// RewardSendSuccess is Eq. 8: QSend succeeded.
	RewardSendSuccess = 4
	// RewardSendFail is Eq. 8: QSend collided.
	RewardSendFail = -3
	// StartupPunishCCA and StartupPunishSend are the §4.3 cautious-startup
	// punishments recorded for subslots in which foreign traffic was
	// overheard (at every power level).
	StartupPunishCCA  = -2
	StartupPunishSend = -3
)

// Power-aware reward shaping of a multi-level engine (arXiv:2301.05196).
const (
	// RewardCapturedOver replaces the Eq. 7/8 failure punishment when
	// Config.CapturedOver is set and an ACK addressed to another node was
	// overheard during the ACK wait: the subslot completed a transaction for
	// someone (SINR capture), so the failure is contention lost, not a
	// destroyed subslot, and the subslot stays worth contesting at another
	// power level.
	RewardCapturedOver = -1
	// LevelSuccessBonus is added per power level on success: succeeding ℓ
	// levels below the reference power earns ℓ·LevelSuccessBonus extra
	// (less energy spent, more headroom under the capture threshold for a
	// neighbour). It is 0 at the single level of QMA.
	LevelSuccessBonus = 0.5
)
