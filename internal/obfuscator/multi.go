package obfuscator

import (
	"fmt"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/sev"
)

// Plan protects one critical HPC event with its own mechanism and gadget
// segment.
type Plan struct {
	Mechanism Mechanism
	Segment   []isa.Variant
	Event     *hpc.Event
	ClipBound float64
}

// MultiObfuscator reinforces protection for multiple critical HPC events
// simultaneously, the deployment style the paper recommends the d*
// mechanism for (§VII-B: "d* mechanism is better suited for reinforcing
// protection for multiple critical HPC events"). Each plan is a
// single-event Obfuscator with its own noise recursion, gadget segment and
// degradation policy; the plans share the vCPU tick budget in order.
type MultiObfuscator struct {
	plans []*Obfuscator
}

var _ sev.Process = (*MultiObfuscator)(nil)

// NewMulti builds a multi-event obfuscator. Every plan needs a mechanism,
// a non-empty segment and an event; clip bounds default to 20000.
func NewMulti(plans []Plan) (*MultiObfuscator, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("obfuscator: no plans")
	}
	m := &MultiObfuscator{}
	for i, p := range plans {
		// Seed the d*→Laplace fallback from the plan's own (secret) d*
		// stream and index; the pure SplitN leaves the d* stream in place.
		var seed uint64
		if d, ok := p.Mechanism.(*DStarMechanism); ok {
			seed = d.calc.r.SplitN("obfuscator-fallback", i).Uint64()
		}
		o, err := New(Config{
			Mechanism: p.Mechanism,
			Segment:   p.Segment,
			RefEvent:  p.Event,
			ClipBound: p.ClipBound,
			Seed:      seed,
		})
		if err != nil {
			return nil, fmt.Errorf("plan %d: %w", i, err)
		}
		m.plans = append(m.plans, o)
	}
	return m, nil
}

// SetFaults wires a fault injector into every plan's kernel-module PMU
// and mechanism draws. Handles are labelled by plan index so the schedules
// are stable however many plans share the deployment. Must be called
// before the first Step.
func (m *MultiObfuscator) SetFaults(in *faultinject.Injector) {
	for i, o := range m.plans {
		h := in.Handle("obfuscator-multi", fmt.Sprintf("plan%d", i))
		o.kmodFaults, o.drawFaults = h, h
	}
}

// Name implements sev.Process.
func (m *MultiObfuscator) Name() string { return "aegis-obfuscator-multi" }

// InjectedReps returns the total segment executions across plans.
func (m *MultiObfuscator) InjectedReps() int64 {
	var n int64
	for _, o := range m.plans {
		n += o.InjectedReps()
	}
	return n
}

// InjectedCounts returns the injected counts of plan i in its own event's
// units.
func (m *MultiObfuscator) InjectedCounts(i int) (float64, error) {
	if i < 0 || i >= len(m.plans) {
		return 0, fmt.Errorf("obfuscator: plan %d out of range", i)
	}
	return m.plans[i].InjectedCounts(), nil
}

// Plans returns the number of protected events.
func (m *MultiObfuscator) Plans() int { return len(m.plans) }

// Report sums the plans' protection reports, so its tick counts are
// (plan, tick) pairs. It is Full only when every plan is.
func (m *MultiObfuscator) Report() ProtectionReport {
	sum := ProtectionReport{DegradedByReason: make(map[DegradeReason]int64)}
	for _, o := range m.plans {
		r := o.Report()
		sum.Ticks += r.Ticks
		sum.InjectedTicks += r.InjectedTicks
		sum.ZeroDrawTicks += r.ZeroDrawTicks
		sum.NoInjectionTicks += r.NoInjectionTicks
		sum.DegradedTicks += r.DegradedTicks
		for _, reason := range DegradeReasons {
			if n := r.DegradedByReason[reason]; n != 0 {
				sum.DegradedByReason[reason] += n
			}
		}
		sum.Retries += r.Retries
		sum.CounterRearms += r.CounterRearms
		sum.MechanismFallbacks += r.MechanismFallbacks
		sum.FaultsSeen += r.FaultsSeen
	}
	return sum
}

// Step implements sev.Process: each plan runs one protected tick in order
// until the shared vCPU budget runs out.
//
//aegis:hotpath
func (m *MultiObfuscator) Step(g *sev.GuestExecutor) {
	for _, o := range m.plans {
		o.Step(g)
		if g.Remaining() == 0 {
			return
		}
	}
}

// SecretDependentMechanism wraps a base mechanism with a constant,
// secret-derived offset. Paper §IX-B: an attacker who collects many traces
// of the same secret could average the DP noise away; attaching a constant
// secret-dependent noise term defeats that, because the residual after
// averaging still depends on a value the attacker does not know.
type SecretDependentMechanism struct {
	Base Mechanism
	// Offset is the constant per-tick addend, derived inside the VM from
	// the secret (the hypervisor never sees it).
	Offset float64
}

// NewSecretDependentMechanism derives the constant offset from a secret
// key (e.g. a hash of the secret value) scaled into [0, amplitude].
func NewSecretDependentMechanism(base Mechanism, secretKey uint64, amplitude float64) (*SecretDependentMechanism, error) {
	if base == nil {
		return nil, ErrNoMechanism
	}
	if amplitude <= 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadBound, amplitude)
	}
	frac := float64(secretKey%4096) / 4096
	return &SecretDependentMechanism{Base: base, Offset: frac * amplitude}, nil
}

// Name implements Mechanism.
func (m *SecretDependentMechanism) Name() string {
	return m.Base.Name() + "+secret-offset"
}

// NeedsObservation implements Mechanism.
func (m *SecretDependentMechanism) NeedsObservation() bool {
	return m.Base.NeedsObservation()
}

// Noise implements Mechanism.
func (m *SecretDependentMechanism) Noise(t int64, x float64) float64 {
	return m.Offset + m.Base.Noise(t, x)
}
