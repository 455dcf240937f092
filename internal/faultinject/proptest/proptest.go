// Package proptest is a property-based harness that drives seeded fault
// schedules through full Aegis Protect/ProtectMulti deployments and
// extracts comparable artifacts. The properties the tests assert:
//
//   - no schedule panics the stack;
//   - per-tick injection stays within the DP clipped support [0, B_u];
//   - identical (seed, schedule, parallelism) triples produce
//     byte-identical artifacts;
//   - the degradation funnel reconciles (ticks == injected + zero-draw +
//     no-injection + degraded);
//   - degradation is monotone: a deployment that saw faults on its own
//     substrate never reports full protection, and a healthy deployment
//     always does (bar a multi-event plan's d* clip fallback).
package proptest

import (
	"fmt"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/workload"
)

// Schedule is one seeded fault scenario.
type Schedule struct {
	// Seed drives both the pipeline and the fault streams.
	Seed uint64
	// Preset names the fault intensity: faultinject.PresetOff/Light/Heavy.
	Preset string
	// Ticks is the online run length.
	Ticks int
	// Parallelism is the offline worker-pool width (affects wall-clock
	// only; artifacts must be identical at any value).
	Parallelism int
}

// String identifies the schedule in test output.
func (s Schedule) String() string {
	return fmt.Sprintf("seed=%d preset=%s ticks=%d par=%d", s.Seed, s.Preset, s.Ticks, s.Parallelism)
}

// Schedules returns n deterministic schedules cycling through the fault
// presets with varied seeds and run lengths.
func Schedules(n int, baseSeed uint64) []Schedule {
	presets := []string{faultinject.PresetOff, faultinject.PresetLight, faultinject.PresetHeavy}
	r := rng.New(baseSeed).Split("proptest-schedules")
	out := make([]Schedule, n)
	for i := range out {
		out[i] = Schedule{
			Seed:        baseSeed + uint64(i)*7919,
			Preset:      presets[i%len(presets)],
			Ticks:       60 + r.Intn(90),
			Parallelism: 1,
		}
	}
	return out
}

// Artifacts is the comparable outcome of one schedule run. All fields are
// deterministic functions of (seed, schedule, parallelism).
type Artifacts struct {
	// Single-event deployment.
	Report         obfuscator.ProtectionReport
	InjectedCounts float64
	InjectedReps   int64
	PerExec        float64
	ClipBound      float64
	// Multi-event deployment: the summed plan report, total reps, and each
	// plan's injected counts in its own event's units.
	MultiReport obfuscator.ProtectionReport
	MultiReps   int64
	MultiCounts []float64
	// World-level fault totals (preemption + gadget interrupts).
	WorldFaults uint64
}

// Fingerprint renders every artifact field into a byte-comparable string.
func (a Artifacts) Fingerprint() string {
	return fmt.Sprintf("%+v|counts=%x|per=%x|multi=%+v/%d/%x|world=%d",
		a.Report, a.InjectedCounts, a.PerExec,
		a.MultiReport, a.MultiReps, a.MultiCounts, a.WorldFaults)
}

// Harness owns the expensive shared state: one fuzzed gadget set reused
// across schedules (the offline pipeline's fault determinism is covered by
// its own tests; here the schedules exercise the online deployments).
type Harness struct {
	gs *aegis.GadgetSet
}

// EventNames are the protected events of the harness deployments.
var EventNames = []string{"RETIRED_UOPS", "LS_DISPATCH"}

// NewHarness fuzzes the shared gadget set on a healthy substrate.
func NewHarness(seed uint64) (*Harness, error) {
	fw, err := aegis.New(aegis.Config{Seed: seed, FuzzCandidates: 150})
	if err != nil {
		return nil, err
	}
	gs, err := fw.Fuzz(EventNames)
	if err != nil {
		return nil, err
	}
	return &Harness{gs: gs}, nil
}

// GadgetSet returns the shared gadget set.
func (h *Harness) GadgetSet() *aegis.GadgetSet { return h.gs }

// Run executes one schedule: a framework configured with the schedule's
// fault preset deploys a d* obfuscator and a multi-event reinforcement
// into a faulted SEV world alongside a workload, runs Ticks ticks and
// collects the artifacts. Panics anywhere in the stack are converted into
// errors so the caller can assert the no-panic property.
func (h *Harness) Run(s Schedule) (a Artifacts, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("schedule %v panicked: %v", s, r)
		}
	}()
	faults, err := faultinject.Preset(s.Preset, s.Seed)
	if err != nil {
		return a, err
	}
	fw, err := aegis.New(aegis.Config{
		Seed:        s.Seed,
		Parallelism: s.Parallelism,
		Faults:      faults,
	})
	if err != nil {
		return a, err
	}

	w := sev.NewWorld(sev.DefaultConfig(s.Seed))
	w.SetFaults(fw.FaultInjector())
	vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 2, SEV: true})
	if err != nil {
		return a, err
	}
	lib := workload.DefaultLibrary(1)
	runner := workload.NewRunner("browser", lib, rng.New(s.Seed).Split("proptest-runner"))
	runner.Enqueue(workload.WebsiteJob("google.com", rng.New(s.Seed).Split("proptest-load")))
	if err := vm.AddProcess(0, runner); err != nil {
		return a, err
	}

	obf, err := fw.Protect(vm, 0, h.gs, aegis.MechanismDStar, 1.0)
	if err != nil {
		return a, err
	}
	multi, err := fw.ProtectMulti(vm, 1, h.gs, 1.0)
	if err != nil {
		return a, err
	}

	w.Run(s.Ticks)

	a = Artifacts{
		Report:         obf.Report(),
		InjectedCounts: obf.InjectedCounts(),
		InjectedReps:   obf.InjectedReps(),
		PerExec:        obf.PerExecDelta(),
		ClipBound:      20000, // aegis.Config default B_u
		MultiReport:    multi.Multi.Report(),
		MultiReps:      multi.Multi.InjectedReps(),
	}
	for i := 0; i < multi.Multi.Plans(); i++ {
		c, err := multi.Multi.InjectedCounts(i)
		if err != nil {
			return a, err
		}
		a.MultiCounts = append(a.MultiCounts, c)
	}
	if in := fw.FaultInjector(); in != nil {
		a.WorldFaults = in.Total()
	}
	return a, nil
}

// Check asserts every schedule-independent invariant on one run's
// artifacts and returns the first violation.
func Check(s Schedule, a Artifacts) error {
	r := a.Report
	// The obfuscator shares its vCPU round-robin with the workload: a tick
	// whose budget dies before the obfuscator's turn never reaches it, so
	// it runs at most — not exactly — the world's tick count.
	if r.Ticks <= 0 || r.Ticks > int64(s.Ticks) {
		return fmt.Errorf("%v: obfuscator ran %d ticks, want 1..%d", s, r.Ticks, s.Ticks)
	}
	// DP clipped support: no run can inject more than ticks × (B_u plus
	// one rep of rounding slack).
	if maxTotal := float64(r.Ticks) * (a.ClipBound + a.PerExec); a.InjectedCounts > maxTotal {
		return fmt.Errorf("%v: injected %v counts exceeds clipped support %v",
			s, a.InjectedCounts, maxTotal)
	}
	if a.InjectedCounts < 0 || a.InjectedReps < 0 {
		return fmt.Errorf("%v: negative injection totals: %+v", s, a)
	}
	for i, r := range []obfuscator.ProtectionReport{a.Report, a.MultiReport} {
		name := [...]string{"single", "multi"}[i]
		if got := r.InjectedTicks + r.ZeroDrawTicks + r.NoInjectionTicks + r.DegradedTicks; got != r.Ticks {
			return fmt.Errorf("%v: %s funnel does not reconcile: %d+%d+%d+%d != %d",
				s, name, r.InjectedTicks, r.ZeroDrawTicks, r.NoInjectionTicks, r.DegradedTicks, r.Ticks)
		}
		// Monotone degradation: faults on the deployment's own substrate,
		// degraded ticks or fallbacks void the full-protection claim.
		if (r.FaultsSeen > 0 || r.DegradedTicks > 0 || r.MechanismFallbacks > 0) && r.Full() {
			return fmt.Errorf("%v: %s full protection reported despite faults: %+v", s, name, r)
		}
	}
	if s.Preset == faultinject.PresetOff {
		if !a.Report.Full() {
			return fmt.Errorf("%v: healthy schedule degraded single-event protection: %+v", s, a.Report)
		}
		// Without faults a multi-event plan can degrade only through the d*
		// clip fallback, which clip streaks trigger on a healthy run too.
		if r := a.MultiReport; r.FaultsSeen != 0 ||
			r.DegradedTicks != r.DegradedByReason[obfuscator.ReasonDStarClipFallback] {
			return fmt.Errorf("%v: healthy schedule degraded multi-event protection by faults: %+v", s, r)
		}
		if a.WorldFaults != 0 {
			return fmt.Errorf("%v: healthy schedule recorded faults: %+v", s, a)
		}
	}
	return nil
}
