// Package energy models transceiver energy consumption by duration
// accounting, the substitute for the FIT IoT-LAB power measurements of
// §6.2.1. Both QMA and CSMA/CA keep the transceiver in receive mode for the
// whole CAP ("During this time, the transceiver is turned on to guarantee
// compatibility with CSMA/CA", §4), so the comparison reduces to transmit
// airtime on top of a shared listening floor — which is why the paper
// measures no difference between the schemes.
package energy

import (
	"fmt"

	"qma/internal/radio"
	"qma/internal/sim"
)

// PowerStep maps one programmable TX output power setting to its supply
// current.
type PowerStep struct {
	// DBm is the output power of the setting.
	DBm float64
	// MilliAmp is the supply current while transmitting at it.
	MilliAmp float64
}

// Profile holds the current draws of a transceiver state machine. The TX
// draw has one model, the radio's programmable power steps; a profile must
// list at least one.
type Profile struct {
	// Name identifies the radio.
	Name string
	// RxMilliAmp is the draw while listening or receiving.
	RxMilliAmp float64
	// IdleMilliAmp is the draw with the transceiver off (MCU still up).
	IdleMilliAmp float64
	// SupplyVolt is the supply voltage.
	SupplyVolt float64
	// TxSteps maps the radio's discrete TX power settings to supply
	// currents in descending DBm order; TxSteps[0] is the maximum power.
	TxSteps []PowerStep
}

// AT86RF231 returns the profile of the radio on the FIT IoT-LAB M3 boards
// (datasheet figures: 14 mA TX at +3 dBm, 12.3 mA RX_ON, 0.4 mA TRX_OFF,
// 3.0 V supply). TxSteps follows the datasheet's TX_PWR characteristic —
// the supply current falls off sub-linearly as the PA backs down from
// +3 dBm to the −17 dBm minimum.
func AT86RF231() Profile {
	return Profile{
		Name: "AT86RF231", RxMilliAmp: 12.3, IdleMilliAmp: 0.4, SupplyVolt: 3.0,
		TxSteps: []PowerStep{
			{DBm: 3, MilliAmp: 14.0},
			{DBm: 0, MilliAmp: 12.7},
			{DBm: -3, MilliAmp: 11.8},
			{DBm: -6, MilliAmp: 11.0},
			{DBm: -9, MilliAmp: 10.4},
			{DBm: -12, MilliAmp: 9.9},
			{DBm: -17, MilliAmp: 9.5},
		},
	}
}

// TxMilliAmpAt reports the TX supply current at the requested output power:
// the draw of the weakest programmable step still delivering at least dbm
// (the radio rounds a requested power up to the next setting). Requests
// above the strongest step draw the maximum; below the weakest, the
// minimum setting's draw (the radio cannot go lower).
func (p Profile) TxMilliAmpAt(dbm float64) float64 {
	for i := len(p.TxSteps) - 1; i >= 0; i-- {
		if p.TxSteps[i].DBm >= dbm {
			return p.TxSteps[i].MilliAmp
		}
	}
	return p.TxSteps[0].MilliAmp
}

// MaxTxDBm reports the strongest programmable output power (TxSteps[0]). It
// is the reference power the radio layer's per-transmission reductions are
// counted from.
func (p Profile) MaxTxDBm() float64 { return p.TxSteps[0].DBm }

// Report is the per-node energy breakdown over a run.
type Report struct {
	// TxTime is the cumulative transmit airtime.
	TxTime sim.Time
	// ListenTime is the receive/listen time (CAP residency minus TX).
	ListenTime sim.Time
	// OffTime is the remainder of the run.
	OffTime sim.Time
	// TxMilliJoule, ListenMilliJoule, OffMilliJoule are the per-state
	// energies.
	TxMilliJoule     float64
	ListenMilliJoule float64
	OffMilliJoule    float64
}

// TotalMilliJoule reports the node's total energy over the run.
func (r Report) TotalMilliJoule() float64 {
	return r.TxMilliJoule + r.ListenMilliJoule + r.OffMilliJoule
}

// String implements fmt.Stringer.
func (r Report) String() string {
	return fmt.Sprintf("tx=%.2fmJ listen=%.2fmJ off=%.2fmJ total=%.2fmJ",
		r.TxMilliJoule, r.ListenMilliJoule, r.OffMilliJoule, r.TotalMilliJoule())
}

// Account computes the energy report for one node: the transceiver listens
// during every CAP of the run except while transmitting, and is off
// otherwise. capOn is the cumulative CAP residency (duration × CAP duty
// cycle for always-associated nodes). TX is charged at the maximum power's
// draw — correct for single-power runs; power-diverse runs use
// AccountPowered with the medium's airtime breakdown.
func Account(p Profile, total, capOn sim.Time, radioStats radio.NodeStats) Report {
	return AccountPowered(p, total, capOn, radioStats, p.MaxTxDBm(), nil)
}

// AccountPowered is Account with the TX draw resolved per power level:
// byPower is the node's airtime breakdown (radio.Medium.TxAirtimeByPower;
// ReduceDB counts down from refDBm, the absolute output power the radio
// layer's reference corresponds to — Profile.MaxTxDBm for hardware driven at
// full power). A nil byPower charges all of radioStats.TxAirtime at refDBm,
// which makes Account a special case.
func AccountPowered(p Profile, total, capOn sim.Time, radioStats radio.NodeStats, refDBm float64, byPower []radio.PowerAirtime) Report {
	tx := radioStats.TxAirtime
	listen := capOn - tx
	if listen < 0 {
		listen = 0
	}
	off := total - capOn
	if off < 0 {
		off = 0
	}
	mj := func(d sim.Time, milliAmp float64) float64 {
		return d.Seconds() * milliAmp * p.SupplyVolt
	}
	var txMJ float64
	if len(byPower) == 0 {
		txMJ = mj(tx, p.TxMilliAmpAt(refDBm))
	} else {
		for _, pa := range byPower {
			txMJ += mj(pa.Airtime, p.TxMilliAmpAt(refDBm-pa.ReduceDB))
		}
	}
	return Report{
		TxTime:           tx,
		ListenTime:       listen,
		OffTime:          off,
		TxMilliJoule:     txMJ,
		ListenMilliJoule: mj(listen, p.RxMilliAmp),
		OffMilliJoule:    mj(off, p.IdleMilliAmp),
	}
}
