package spike

import "math"

// Stepper is the cycle-stepped neuron contract shared by the ideal and RC
// models: advance one pipeline cycle with a conductance drive, report
// whether a spike is emitted, and Reset between sampling windows ("a reset
// signal will be sent to clear internal states before a new sampling window
// begins", §4.2). The spiking kernel in internal/xbar inlines this contract,
// so tests pin that Reset restores every implementation to its
// freshly-constructed behavior.
type Stepper interface {
	Step(drive float64) bool
	Reset()
}

// Neuron is the idealized integrate-and-fire neuron the paper's derivation
// assumes (Eq. 2-5): it accumulates the column conductance-drive each cycle
// and fires when the accumulation reaches the threshold η, carrying the
// remainder over. Over a window it emits floor(Σ drive / η) spikes (capped
// at one per cycle, as the S-R latch allows), which is exactly the
// telescoped RC-charging solution of Eq. 1 in the continuous-time limit.
type Neuron struct {
	// Eta is the firing threshold η = (C/τ)·ln((Vdd−Vre)/(Vdd−Vth)) in
	// conductance-drive units (Eq. 2 right-hand side).
	Eta float64

	acc float64
}

// Step advances the neuron one pipeline cycle with the given total
// conductance drive (Σ_i s_i(t)·g_ji for the column) and reports whether a
// spike is emitted this cycle.
func (n *Neuron) Step(drive float64) bool {
	n.acc += drive
	if n.acc >= n.Eta {
		n.acc -= n.Eta
		return true
	}
	return false
}

// Reset clears internal state; the mapper issues it between sampling
// windows ("a reset signal will be sent to clear internal states before a
// new sampling window begins", §4.2).
func (n *Neuron) Reset() { n.acc = 0 }

// Potential exposes the accumulated sub-threshold drive, for tests.
func (n *Neuron) Potential() float64 { return n.acc }

// RCNeuron is the circuit-faithful voltage-domain model of Figure 4(D) and
// Eq. 1: a capacitor charges toward Vdd through the crossbar's equivalent
// resistance and is discharged to Vre when it crosses Vth at a cycle
// boundary. Unlike Neuron, threshold overshoot within a cycle is lost on
// discharge, so it can undercount by a bounded amount; tests quantify the
// bound and the exact-match conditions.
type RCNeuron struct {
	Vdd float64 // charging supply voltage
	Vth float64 // firing threshold voltage
	Vre float64 // reset voltage
	// TauOverC is τ/C: charging time per cycle divided by the membrane
	// capacitance, which scales conductance-drive into the exponent of
	// Eq. 1.
	TauOverC float64

	v       float64
	started bool
}

// Eta returns the equivalent ideal threshold η = (C/τ)·ln((Vdd−Vre)/(Vdd−Vth))
// (Eq. 2), letting callers build a matched ideal Neuron.
func (n *RCNeuron) Eta() float64 {
	return math.Log((n.Vdd-n.Vre)/(n.Vdd-n.Vth)) / n.TauOverC
}

// Step advances one cycle with the given total conductance drive, per
// Eq. 1: Vdd − U_T = (Vdd − U_{T−1})·exp(−τ·G/C).
func (n *RCNeuron) Step(drive float64) bool {
	if !n.started {
		n.v = n.Vre
		n.started = true
	}
	n.v = n.Vdd - (n.Vdd-n.v)*math.Exp(-n.TauOverC*drive)
	if n.v >= n.Vth {
		n.v = n.Vre
		return true
	}
	return false
}

// Reset discharges the capacitor to the reset voltage.
func (n *RCNeuron) Reset() {
	n.v = n.Vre
	n.started = true
}

// Voltage exposes the membrane voltage, for tests.
func (n *RCNeuron) Voltage() float64 {
	if !n.started {
		return n.Vre
	}
	return n.v
}

// DefaultRCNeuron returns an RC neuron with a plausible 45 nm operating
// point whose ideal threshold equals eta.
func DefaultRCNeuron(eta float64) *RCNeuron {
	n := &RCNeuron{Vdd: 1.0, Vth: 0.5, Vre: 0.0, TauOverC: 1}
	// Solve TauOverC so that Eta() == eta: η = ln(2)/TauOverC.
	n.TauOverC = math.Log((n.Vdd-n.Vre)/(n.Vdd-n.Vth)) / eta
	return n
}
