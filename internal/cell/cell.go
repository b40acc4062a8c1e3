// Package cell provides the synthetic standard-cell library that stands in
// for the proprietary 90nm industrial library of the paper's Section VI
// (see DESIGN.md, substitutions). Cell delays are linear in the process
// parameters — exactly the modeling assumption of the paper — with
// per-gate-type base delays, per-pin skew, a fanout load slope, and
// per-parameter relative sensitivities.
package cell

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/variation"
)

// Spec describes the timing of one gate type. All delays are picoseconds.
type Spec struct {
	Type      circuit.GateType
	BaseDelay float64 // intrinsic arc delay
	PinSkew   float64 // additional delay per input pin index
	LoadSlope float64 // delay added per fanout
	// Sens maps parameter index (into Library.Params) to the relative delay
	// sensitivity: d(delay)/delay per unit relative parameter change.
	Sens []float64

	// Slew model (first order): the arc delay grows by SlewSens ps per ps
	// of input transition beyond the reference slew; the cell's output
	// transition is OutSlewBase + OutSlewSlope per fanout.
	SlewSens     float64
	OutSlewBase  float64
	OutSlewSlope float64
}

// Library is a set of cell specs plus the process-variation context they
// are characterized against.
type Library struct {
	Name      string
	Params    []variation.Parameter
	LoadSigma float64 // relative sigma of the purely random load variation
	specs     map[circuit.GateType]Spec
}

// Synthetic90nm returns the default library: 90nm-class arc delays and the
// paper's variation setup (Leff/Tox/Vth sigmas 15.7%/5.3%/4.4%, load 15%).
// Sensitivities are plausible first-order values: delay responds strongest
// to channel length, then threshold voltage, then oxide thickness.
func Synthetic90nm() *Library {
	lib := &Library{
		Name:      "synthetic90nm",
		Params:    variation.Nassif90nm(),
		LoadSigma: variation.LoadSigma,
		specs:     make(map[circuit.GateType]Spec),
	}
	// Sensitivity vector order matches Params: Leff, Tox, Vth.
	sens := func(l, t, v float64) []float64 { return []float64{l, t, v} }
	add := func(gt circuit.GateType, base, skew, slope float64, s []float64) {
		lib.specs[gt] = Spec{
			Type: gt, BaseDelay: base, PinSkew: skew, LoadSlope: slope, Sens: s,
			// First-order slew model: sharper gates regenerate the edge
			// better (smaller output slew), slow inputs cost ~15% of their
			// excess transition in delay.
			SlewSens:     0.15,
			OutSlewBase:  0.9 * base,
			OutSlewSlope: 0.8 * slope,
		}
	}
	add(circuit.Not, 12, 0, 3.0, sens(0.90, 0.40, 0.55))
	add(circuit.Buf, 18, 0, 2.6, sens(0.88, 0.38, 0.52))
	add(circuit.Nand, 16, 0.8, 3.4, sens(0.92, 0.42, 0.56))
	add(circuit.Nor, 19, 1.0, 3.9, sens(0.95, 0.44, 0.60))
	add(circuit.And, 23, 0.8, 3.2, sens(0.90, 0.41, 0.55))
	add(circuit.Or, 25, 1.0, 3.6, sens(0.93, 0.43, 0.58))
	add(circuit.Xor, 31, 1.2, 4.2, sens(0.97, 0.46, 0.62))
	add(circuit.Xnor, 33, 1.2, 4.4, sens(0.97, 0.46, 0.62))
	// The DFF spec characterizes the clock-to-Q launch arc: BaseDelay is the
	// clk->Q delay, and the load slope bills the Q net's fanout like any
	// other cell output. Setup/hold constraints live in RegTiming.
	add(circuit.Dff, 42, 0, 3.1, sens(0.93, 0.43, 0.58))
	return lib
}

// RegTiming holds the setup/hold characterization of the library's register:
// nominal constraint values plus per-parameter relative sensitivities, in the
// same Params order as the cell specs. Setup shrinks the usable clock period;
// hold bounds the earliest the next D value may arrive after the clock edge.
type RegTiming struct {
	Setup float64 // ps required before the capturing edge
	Hold  float64 // ps required after the capturing edge
	// Relative sensitivities per parameter (fraction of nominal per unit
	// relative parameter change), Params order.
	SetupSens []float64
	HoldSens  []float64
	// Relative sigma of the purely random (uncorrelated) constraint
	// variation — the register-internal mismatch component.
	RandSigma float64
}

// RegTiming returns the register constraint characterization. Setup tracks
// process like a gate delay (a slow register needs data earlier); hold moves
// the same direction with roughly half the sensitivity, which keeps the
// setup-hold window physical across the parameter space.
func (l *Library) RegTiming() RegTiming {
	return RegTiming{
		Setup:     35,
		Hold:      8,
		SetupSens: []float64{0.85, 0.40, 0.55},
		HoldSens:  []float64{0.45, 0.20, 0.30},
		RandSigma: 0.05,
	}
}

// RefSlew is the input transition (ps) the arcs are characterized at; it is
// also the default transition assumed at module input ports.
const RefSlew = 30.0

// OutputSlew returns the nominal output transition of a gate driving the
// given fanout.
func (l *Library) OutputSlew(gt circuit.GateType, fanout int) (float64, error) {
	s, err := l.Spec(gt)
	if err != nil {
		return 0, err
	}
	if fanout < 1 {
		fanout = 1
	}
	return s.OutSlewBase + s.OutSlewSlope*float64(fanout), nil
}

// Spec returns the spec for a gate type.
func (l *Library) Spec(gt circuit.GateType) (Spec, error) {
	s, ok := l.specs[gt]
	if !ok {
		return Spec{}, fmt.Errorf("cell: library %q has no spec for gate type %v", l.Name, gt)
	}
	return s, nil
}

// Arc holds the nominal delay and sensitivities of one cell arc (input pin
// to output) at a concrete fanout load.
type Arc struct {
	Nominal float64   // ps
	Sens    []float64 // absolute delay sensitivity per parameter (ps per unit relative change)
	LoadAbs float64   // absolute 1-sigma delay contribution of load variation (ps)
}

// Arc computes the arc delay for a gate type through input pin `pin` when
// the gate drives `fanout` loads, with the input arriving at the reference
// transition. Fanout 0 (a primary output) is billed as one load.
func (l *Library) Arc(gt circuit.GateType, pin, fanout int) (Arc, error) {
	return l.ArcAtSlew(gt, pin, fanout, RefSlew, nil)
}

// ArcAtSlew is Arc with an explicit input transition: the nominal delay
// grows by SlewSens per ps of transition beyond the reference. The
// sensitivities are written into sens, which becomes the arc's Sens, when
// it holds one entry per parameter; otherwise a new slice is allocated. A
// caller building many arcs passes one buffer for all of them.
func (l *Library) ArcAtSlew(gt circuit.GateType, pin, fanout int, slew float64, sens []float64) (Arc, error) {
	s, err := l.Spec(gt)
	if err != nil {
		return Arc{}, err
	}
	if pin < 0 {
		return Arc{}, fmt.Errorf("cell: negative pin index %d", pin)
	}
	if slew < 0 {
		return Arc{}, fmt.Errorf("cell: negative slew %g", slew)
	}
	if fanout < 1 {
		fanout = 1
	}
	nom := s.BaseDelay + s.PinSkew*float64(pin) + s.LoadSlope*float64(fanout) + s.SlewSens*(slew-RefSlew)
	if nom < 1 {
		nom = 1 // extremely sharp inputs cannot drive the delay negative
	}
	if len(sens) != len(l.Params) {
		sens = make([]float64, len(l.Params))
	}
	clear(sens)
	arc := Arc{Nominal: nom, Sens: sens}
	for i, k := range s.Sens {
		arc.Sens[i] = nom * k // relative sensitivity scaled to absolute ps
	}
	// Only the load-dependent part of the delay varies with load.
	arc.LoadAbs = s.LoadSlope * float64(fanout) * l.LoadSigma
	return arc, nil
}
