//go:build !race

// Allocation gates for the steady-state hot paths (`make bench-alloc`).
// Each gate warms the path up, then asserts 0 allocs/op with
// testing.AllocsPerRun. The file is excluded under -race because race
// instrumentation itself allocates; `make race` still exercises the same
// code paths for data races through the regular tests.
//
// These gates have a static twin: every function exercised here carries a
// //aegis:hotpath annotation, and the aegis-lint hotpath rule (`make lint`,
// internal/analysis/rule_hotpath.go) rejects allocating constructs in
// annotated functions at review time, before a benchmark ever runs.
package aegis

import (
	"testing"

	"github.com/repro/aegis/internal/benchkit"
	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/daemon/daemontest"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/stats"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
	"github.com/repro/aegis/internal/workload"
)

// quietTelemetry disables the default registry for the test (the hot-path
// configuration the experiment harness runs with via -telemetry=false) and
// restores it afterwards. With the registry enabled, a tick additionally
// allocates one tracing span — the cost of observability, not the
// substrate.
func quietTelemetry(t *testing.T) {
	t.Helper()
	reg := telemetry.Default()
	was := reg.Enabled()
	reg.SetEnabled(false)
	t.Cleanup(func() { reg.SetEnabled(was) })
}

// loudFlight pins the flight recorder ON for a gate and restores it
// afterwards. Unlike the telemetry registry, the recorder does not get
// quieted: the acceptance bar for these gates is 0 allocs/op WITH
// incident recording enabled, so the always-on journal is free on the
// steady-state paths.
func loudFlight(t *testing.T) *flight.Recorder {
	t.Helper()
	rec := flight.Default()
	was := rec.Enabled()
	rec.SetEnabled(true)
	t.Cleanup(func() { rec.SetEnabled(was) })
	return rec
}

// requireZeroAllocs asserts a warmed-up path allocates nothing per run.
func requireZeroAllocs(t *testing.T, name string, runs int, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(runs, f); avg != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, avg)
	}
}

// TestZeroAllocRDPMC gates the noisy counter read, the innermost operation
// of the fuzzer's measurement loop and the obfuscator's kernel module.
func TestZeroAllocRDPMC(t *testing.T) {
	quietTelemetry(t)
	loudFlight(t)
	core := microarch.NewCore(0, microarch.DefaultCoreConfig(), nil)
	pmu := hpc.NewPMU(core, rng.New(3).Split("pmu"))
	cat := hpc.NewAMDEpyc7252Catalog(1)
	if err := pmu.Program(0, cat.MustByName("RETIRED_UOPS")); err != nil {
		t.Fatal(err)
	}
	requireZeroAllocs(t, "PMU.RDPMC", 512, func() {
		if _, err := pmu.RDPMC(0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestZeroAllocReadAllInto gates the index-keyed bulk read that replaced
// the per-tick map-allocating ReadAll on hot paths.
func TestZeroAllocReadAllInto(t *testing.T) {
	quietTelemetry(t)
	core := microarch.NewCore(0, microarch.DefaultCoreConfig(), nil)
	pmu := hpc.NewPMU(core, rng.New(4).Split("pmu"))
	cat := hpc.NewAMDEpyc7252Catalog(1)
	if err := pmu.Program(0, cat.MustByName("RETIRED_UOPS")); err != nil {
		t.Fatal(err)
	}
	if err := pmu.Program(2, cat.MustByName("LS_DISPATCH")); err != nil {
		t.Fatal(err)
	}
	var buf [hpc.NumCounterRegisters]float64
	requireZeroAllocs(t, "PMU.ReadAllInto", 512, func() {
		pmu.ReadAllInto(buf[:])
	})
}

// TestZeroAllocCoreExecute gates the bottom layer of every hot path: one
// load or store retired by the simulated core. The working set spans far
// more than the TLB reach and the L2, so the gated runs take the DTLB-miss,
// L1D-miss and L2-miss (fill and evict) branches, not only hits.
func TestZeroAllocCoreExecute(t *testing.T) {
	quietTelemetry(t)
	core := microarch.NewCore(0, microarch.DefaultCoreConfig(), nil)
	ctx := microarch.NewWorkloadContext(0x10000, 1<<30, rng.New(6).Split("ctx"))
	legal := isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures()).Legal
	for _, class := range []isa.Class{isa.ClassLoad, isa.ClassStore, isa.ClassLoadStore} {
		var v isa.Variant
		for _, l := range legal {
			if l.Class == class {
				v = l
				break
			}
		}
		if v.Class != class {
			t.Fatalf("no legal %v variant", class)
		}
		before := core.Counters()
		requireZeroAllocs(t, "Core.Execute("+v.Key()+")", 4096, func() {
			if err := core.Execute(v, ctx); err != nil {
				t.Fatal(err)
			}
		})
		d := core.Counters().Sub(before)
		if d.DTLBMisses == 0 || d.L1DMisses == 0 || d.L2Misses == 0 {
			t.Errorf("%s: gated runs missed dtlb/l1d/l2 %d/%d/%d times; every miss path must be covered",
				v.Key(), d.DTLBMisses, d.L1DMisses, d.L2Misses)
		}
	}
}

// TestZeroAllocWorldStep gates one scheduler tick of a 1-vCPU SEV guest in
// its idle steady state — the per-tick cost every experiment pays per
// sample.
func TestZeroAllocWorldStep(t *testing.T) {
	quietTelemetry(t)
	rec := loudFlight(t)
	before := rec.Total()
	world := sev.NewWorld(sev.DefaultConfig(4))
	vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	runner := workload.NewRunner("gate", workload.DefaultLibrary(1), rng.New(5).Split("r"))
	if err := vm.AddProcess(0, runner); err != nil {
		t.Fatal(err)
	}
	world.Run(8) // settle into the idle steady state
	requireZeroAllocs(t, "World.Step", 256, func() { world.Step() })
	if rec.Total() == before {
		t.Error("no world-step summaries journaled: the gate must cover the recording path")
	}
}

// TestZeroAllocObfuscatorTick gates the full per-tick protection loop
// (kernel-module read, noise draw, clip, gadget injection) for both DP
// mechanisms, driven through World.Step like a deployed obfuscator.
func TestZeroAllocObfuscatorTick(t *testing.T) {
	quietTelemetry(t)
	rec := loudFlight(t)
	before := rec.Total()
	cat := hpc.NewAMDEpyc7252Catalog(1)
	ref := cat.MustByName("RETIRED_UOPS")
	seg := benchSegment(t)
	for _, tc := range []struct {
		name string
		mech func() (obfuscator.Mechanism, error)
	}{
		{"laplace", func() (obfuscator.Mechanism, error) {
			return obfuscator.NewLaplaceMechanism(1, 1500, rng.New(6).Split("lap"))
		}},
		{"dstar", func() (obfuscator.Mechanism, error) {
			return obfuscator.NewDStarMechanism(1, 1500, rng.New(7).Split("dstar"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mech, err := tc.mech()
			if err != nil {
				t.Fatal(err)
			}
			obf, err := obfuscator.New(obfuscator.Config{
				Mechanism: mech,
				Segment:   seg,
				RefEvent:  ref,
				ClipBound: 20000,
				Seed:      11,
			})
			if err != nil {
				t.Fatal(err)
			}
			world := sev.NewWorld(sev.DefaultConfig(9))
			vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := vm.AddProcess(0, obf); err != nil {
				t.Fatal(err)
			}
			world.Run(8) // attach the kernel module, settle the caches
			requireZeroAllocs(t, "obfuscator tick "+tc.name, 128, func() { world.Step() })
		})
	}
	if rec.Total() == before {
		t.Error("no obfuscator-tick records journaled: the gate must cover the recording path")
	}
}

// TestZeroAllocDaemonTick gates the daemon's steady-state tick — the
// per-tenant fan-out plus the serialized journal barrier — with one
// protecting tenant and an empty queue, the configuration a healthy
// multi-tenant deployment spends its life in. The daemon journal is its
// own always-enabled recorder, so the gate covers the recording path.
func TestZeroAllocDaemonTick(t *testing.T) {
	quietTelemetry(t)
	loudFlight(t)
	d, err := daemon.New(daemontest.BaseConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Attach(daemon.AttachSpec{Name: "gate"}); err != nil {
		t.Fatal(err)
	}
	d.Run(8) // promote to Protecting, settle the guest caches
	before := d.Journal().Total()
	requireZeroAllocs(t, "daemon.Step", 256, func() { d.Step() })
	if d.Journal().Total() == before {
		t.Error("no tick summaries journaled: the gate must cover the recording path")
	}
}

// TestZeroAllocFlightRecord gates the recorder write itself: enabled, a
// journaled record is a mutex-guarded ring store plus counter bumps;
// disabled, it is a single atomic load. Neither may allocate.
func TestZeroAllocFlightRecord(t *testing.T) {
	quietTelemetry(t)
	rec := flight.NewRecorder(1024)
	h := rec.Handle(flight.KindFault)
	requireZeroAllocs(t, "flight.Handle.Record", 512, func() {
		h.Record(1, flight.CodeFaultPMURead, flight.CodeNone, 1, 2, 3)
	})
	requireZeroAllocs(t, "flight.Handle.Incident", 512, func() {
		h.Incident(2, flight.CodeFaultCounterSaturation, flight.CodeNone, 1, 2, 3)
	})
	if rec.Total() == 0 || rec.Incidents() == 0 {
		t.Fatalf("gate wrote nothing: total=%d incidents=%d", rec.Total(), rec.Incidents())
	}
	rec.SetEnabled(false)
	requireZeroAllocs(t, "flight.Handle.Record disabled", 512, func() {
		h.Record(3, flight.CodeFaultPMURead, flight.CodeNone, 0, 0, 0)
	})
}

// TestZeroAllocStatsScratch gates the arena-reusing numeric kernels at the
// shapes the profiler's scoring loop uses.
func TestZeroAllocStatsScratch(t *testing.T) {
	rows := benchkit.PCARows(72, 150)
	slab := benchkit.PCASlab(72, 150)
	classes := benchkit.MIClasses(6)
	xs, ys := benchkit.BinnedPairs(400)
	var s stats.Scratch
	requireZeroAllocs(t, "Scratch.FitPCA", 32, func() {
		if _, err := s.FitPCA(rows, 1); err != nil {
			t.Fatal(err)
		}
	})
	requireZeroAllocs(t, "Scratch.FitPCASlab", 32, func() {
		if _, err := s.FitPCASlab(slab, 72, 150, 1); err != nil {
			t.Fatal(err)
		}
	})
	requireZeroAllocs(t, "Scratch.MutualInformation", 32, func() {
		if _, err := s.MutualInformation(classes, 600); err != nil {
			t.Fatal(err)
		}
	})
	requireZeroAllocs(t, "Scratch.BinnedMI", 32, func() {
		if _, err := s.BinnedMI(xs, ys, 16); err != nil {
			t.Fatal(err)
		}
	})
	requireZeroAllocs(t, "Scratch.MedianOf", 64, func() { s.MedianOf(xs) })
	requireZeroAllocs(t, "Scratch.PercentileOf", 64, func() { s.PercentileOf(ys, 99) })
}
