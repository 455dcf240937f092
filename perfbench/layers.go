package main

import (
	"fmt"
	"time"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/artifact"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/stats"
	"github.com/repro/aegis/internal/telemetry/flight"
	"github.com/repro/aegis/internal/workload"
)

// layerDef is one per-layer metric: its unit and the end-to-end metric
// (and workload) it should move.
type layerDef struct {
	Name, Unit, Moves string
}

// layerDefs lists every per-layer metric a traced run reports, in print
// order. BENCHMARK.json's per_layer list mirrors it.
var layerDefs = []layerDef{
	{"daemon.step_ms", "ms", "tenant_ticks_per_s, step_p50_ms (steady); tick_late_p99_ms (control)"},
	{"daemon.self_us_per_tenant_tick", "us", "step_p50_ms (steady)"},
	{"daemon.attach_ms", "ms", "setup_s (steady)"},
	{"daemon.ctl_lock_wait_mean_ms", "ms", "ctl_p50_ms (control)"},
	{"daemon.ctl_lock_wait_p99_ms", "ms", "ctl_p99_ms (control)"},
	{"daemon.ctl_self_ms", "ms", "ctl_p50_ms (control)"},
	{"daemon.replan_ms", "ms", "tick_late_p99_ms (control)"},
	{"daemon.shed_ratio", "ratio", "fail_ratio (control)"},
	{"sev.step_us", "us", "tenant_ticks_per_s"},
	{"sev.self_us", "us", "tenant_ticks_per_s"},
	{"workload.runner_us", "us", "tenant_ticks_per_s"},
	{"workload.job_us", "us", "tenant_ticks_per_s"},
	{"workload.guest_instr_per_tick", "instr", "none (simulated; must not move)"},
	{"obfuscator.tick_us", "us", "tenant_ticks_per_s (steady)"},
	{"obfuscator.injected_instr_per_tick", "instr", "none (simulated Fig. 10 cost)"},
	{"obfuscator.inject_share", "ratio", "none (simulated Fig. 10 cost)"},
	{"obfuscator.draw_laplace_ns", "ns", "obfuscator.tick_us"},
	{"obfuscator.draw_dstar_ns", "ns", "obfuscator.tick_us"},
	{"obfuscator.degraded_ratio", "ratio", "fail_ratio (control)"},
	{"obfuscator.retries_per_tick", "count", "fail_ratio (control)"},
	{"microarch.ns_per_instr", "ns", "tenant_ticks_per_s, campaign_s"},
	{"microarch.execute_ns", "ns", "tenant_ticks_per_s"},
	{"microarch.newcore_us", "us", "campaign_s"},
	{"hpc.rdpmc_ns", "ns", "obfuscator.tick_us"},
	{"hpc.readall_ns", "ns", "obfuscator.tick_us"},
	{"flight.record_ns", "ns", "daemon.self_us_per_tenant_tick"},
	{"isa.cleanup_ms", "ms", "setup_s (offline)"},
	{"profiler.warmup_ms", "ms", "campaign_s"},
	{"profiler.rank_ms", "ms", "campaign_s"},
	{"profiler.keep_ratio", "ratio", "campaign_s"},
	{"fuzzer.fuzz_ms", "ms", "campaign_s"},
	{"fuzzer.cover_ms", "ms", "campaign_s"},
	{"fuzzer.candidates_tried", "count", "campaign_s"},
	{"fuzzer.confirm_ratio", "ratio", "campaign_s"},
	{"stats.fitpca_us", "us", "profiler.rank_ms -> campaign_s"},
	{"stats.fitpca_slab_us", "us", "profiler.rank_ms -> campaign_s"},
	{"stats.binnedmi_us", "us", "profiler.rank_ms -> campaign_s"},
	{"stats.mutualinfo_us", "us", "profiler.rank_ms -> campaign_s"},
	{"artifact.hits", "count", "resume_s"},
	{"artifact.misses", "count", "campaign_s"},
	{"artifact.writes", "count", "campaign_s"},
	{"artifact.corrupt", "count", "resume_s"},
	{"artifact.warm_hit_ratio", "ratio", "resume_s"},
	{"artifact.put_us", "us", "campaign_s"},
	{"artifact.get_us", "us", "resume_s"},
}

// Census windows: a traced run measures its own workload's layers at full
// size and fills the layers only the other workloads exercise from a
// shorter census pass of those workloads.
const (
	censusSteadyWindow   = 3 * time.Second
	censusControlTenants = 6
	censusControlWindow  = 3 * time.Second
)

// censusApps is the offline census: one cheap app.
func censusApps() []workload.App { return []workload.App{&workload.KeystrokeApp{}} }

// finishTraced fills the layers the workload itself did not exercise from
// census passes, adds the standalone kernel timings, reports every layer
// in layerDefs order and writes the spans out.
func finishTraced(o options, r *result, tr *tracer, own map[string]metric, name string) error {
	layers := map[string]metric{}
	source := map[string]string{}
	merge := func(m map[string]metric, src string) {
		for k, v := range m {
			if _, ok := layers[k]; !ok {
				layers[k] = v
				source[k] = src
			}
		}
	}
	merge(own, name)
	if name != "daemon-steady" {
		m, err := traceSteadyLayers(o.seed, censusSteadyWindow, nil, r, false)
		if err != nil {
			return fmt.Errorf("census daemon-steady: %w", err)
		}
		merge(m, "census:daemon-steady")
	}
	if name != "daemon-control" {
		m, err := traceControlLayers(o.seed, censusControlTenants, 1, censusControlWindow, nil, r, "census:daemon-control")
		if err != nil {
			return fmt.Errorf("census daemon-control: %w", err)
		}
		merge(m, "census:daemon-control")
	}
	if name != "offline-campaign" {
		m, err := traceOfflineLayers(censusApps(), nil, r, "census:offline-campaign")
		if err != nil {
			return fmt.Errorf("census offline-campaign: %w", err)
		}
		merge(m, "census:offline-campaign")
	}
	plan, err := steadyPlan()
	if err != nil {
		return err
	}
	k, err := kernelLayers(o.seed, plan)
	if err != nil {
		return err
	}
	merge(k, "kernel")
	for _, def := range layerDefs {
		m, ok := layers[def.Name]
		if !ok {
			return fmt.Errorf("layer %s was not measured", def.Name)
		}
		m.Unit = def.Unit
		m.Note = fmt.Sprintf("[%s] %s; moves %s", source[def.Name], m.Note, def.Moves)
		r.add(m)
	}
	if err := tr.write(o.traceOut); err != nil {
		return err
	}
	r.note("spans written to %s", o.traceOut)
	return nil
}

// perCall times fn in batches until at least minDur has passed and
// returns the median per-call time of the batches in nanoseconds.
func perCall(batch int, minDur time.Duration, fn func() error) (float64, int, error) {
	var samples []float64
	end := time.Now().Add(minDur)
	for len(samples) < 5 || time.Now().Before(end) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, 0, err
			}
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
	}
	return median(samples), len(samples) * batch, nil
}

// kernelLayers times single layer functions in isolation, at the shapes
// the online loop and the profiler use them.
func kernelLayers(seed uint64, gs *aegis.GadgetSet) (map[string]metric, error) {
	out := map[string]metric{}
	const window = 150 * time.Millisecond
	// Scales from nanoseconds per call to the metric's unit.
	ns := func(v float64) float64 { return v }
	usf := func(v float64) float64 { return v / 1e3 }
	msf := func(v float64) float64 { return v / 1e6 }
	run := func(name string, batch int, note string, scale func(float64) float64, fn func() error) error {
		v, n, err := perCall(batch, window, fn)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out[name] = metric{Key: name, Name: name, Value: scale(v), N: n, Note: note}
		return nil
	}
	segment, ref := gs.Segment(), gs.RefEvent()

	core := microarch.NewCore(0, microarch.DefaultCoreConfig(), rng.NewStream(seed, "perfbench", "core"))
	ctx := microarch.NewScratchContext(0x2000_0000)
	if err := run("microarch.execute_ns", 200, fmt.Sprintf("Core.Execute per instruction over the %d-instruction plan segment", len(segment)), func(v float64) float64 {
		return v / float64(len(segment))
	}, func() error { return core.ExecuteSequence(segment, ctx) }); err != nil {
		return nil, err
	}
	if err := run("microarch.newcore_us", 20, "NewCore with the default core config", usf, func() error {
		microarch.NewCore(1, microarch.DefaultCoreConfig(), nil)
		return nil
	}); err != nil {
		return nil, err
	}

	pmu := hpc.NewPMU(core, nil)
	for slot := 0; slot < hpc.NumCounterRegisters; slot++ {
		if err := pmu.Program(slot, ref); err != nil {
			return nil, err
		}
	}
	if err := run("hpc.rdpmc_ns", 2000, "PMU.RDPMC of the plan's reference event", ns, func() error {
		_, err := pmu.RDPMC(hpc.NumCounterRegisters - 1)
		return err
	}); err != nil {
		return nil, err
	}
	buf := make([]float64, hpc.NumCounterRegisters)
	if err := run("hpc.readall_ns", 1000, "PMU.ReadAllInto, every slot programmed", ns, func() error {
		buf = pmu.ReadAllInto(buf)
		return nil
	}); err != nil {
		return nil, err
	}

	rec := flight.NewRecorder(flight.DefaultCapacity)
	h := rec.Handle(flight.KindDaemon)
	tick := int64(0)
	if err := run("flight.record_ns", 2000, "Handle.Record on a daemon-sized recorder", ns, func() error {
		tick++
		h.Record(tick, flight.CodeDaemonSummary, flight.CodeNone, 1, 2, 3)
		return nil
	}); err != nil {
		return nil, err
	}

	lap, err := obfuscator.NewLaplaceMechanism(1, daemonSensitivity, rng.NewStream(seed, "perfbench", "lap"))
	if err != nil {
		return nil, err
	}
	dstar, err := obfuscator.NewDStarMechanism(1, daemonSensitivity, rng.NewStream(seed, "perfbench", "dstar"))
	if err != nil {
		return nil, err
	}
	t := int64(0)
	if err := run("obfuscator.draw_laplace_ns", 2000, "LaplaceMechanism.Noise", ns, func() error {
		t++
		lap.Noise(t, 0)
		return nil
	}); err != nil {
		return nil, err
	}
	t = 0
	if err := run("obfuscator.draw_dstar_ns", 2000, "DStarMechanism.Noise + Commit, ticks advancing", ns, func() error {
		t++
		dstar.Commit(t, dstar.Noise(t, 0))
		return nil
	}); err != nil {
		return nil, err
	}

	if err := statsKernels(seed, run, usf); err != nil {
		return nil, err
	}

	if err := run("isa.cleanup_ms", 1, "isa.Cleanup of the AMD EPYC spec", msf, func() error {
		isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures())
		return nil
	}); err != nil {
		return nil, err
	}

	dirs, err := newStoreDirs()
	if err != nil {
		return nil, err
	}
	defer dirs.cleanup()
	store, err := artifact.Open(dirs.next())
	if err != nil {
		return nil, err
	}
	// A representative artifact: one secret's trace block at the
	// profiler's ranking shape.
	block := make([]float64, profShapeN*profShapeD)
	gr := rng.NewStream(seed, "perfbench", "artifact")
	for i := range block {
		block[i] = gr.Gaussian(0, 1)
	}
	art := artifact.New("perfbench-traces", fmt.Sprintf("%016x", seed))
	art.SetMeta("shape", fmt.Sprintf("%dx%d", profShapeN, profShapeD))
	art.AddSection("traces", block)
	if err := run("artifact.put_us", 2, "Store.Put (temp file, fsync, rename) of a 72x150 trace block", usf, func() error {
		return store.Put(art)
	}); err != nil {
		return nil, err
	}
	if err := run("artifact.get_us", 5, "Store.Get of the same artifact", usf, func() error {
		if _, ok := store.Get(art.Kind, art.Fingerprint); !ok {
			return fmt.Errorf("artifact missing after Put")
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// The profiler's ranking block shape (secrets x repeats rows of a
// trace-length feature), the Fig. 9c histogram shape and the MI
// quadrature shape.
const (
	profShapeN   = 72
	profShapeD   = 150
	binnedN      = 400
	binnedBins   = 16
	miClasses    = 6
	miQuadrature = 600
)

// statsKernels times the profiler's statistics kernels on seeded inputs.
func statsKernels(seed uint64, run func(string, int, string, func(float64) float64, func() error) error, usf func(float64) float64) error {
	r := rng.NewStream(seed, "perfbench", "stats")
	rows := make([][]float64, profShapeN)
	slab := make([]float64, 0, profShapeN*profShapeD)
	for i := range rows {
		row := make([]float64, profShapeD)
		base := r.Gaussian(0, 3)
		for j := range row {
			row[j] = base*float64(j%7) + r.Gaussian(0, 1)
		}
		rows[i] = row
		slab = append(slab, row...)
	}
	xs, ys := make([]float64, binnedN), make([]float64, binnedN)
	for i := range xs {
		xs[i] = r.Gaussian(0, 1)
		ys[i] = 0.7*xs[i] + r.Gaussian(0, 0.5)
	}
	classes := make([]stats.ClassModel, miClasses)
	for i := range classes {
		classes[i] = stats.ClassModel{Secret: fmt.Sprintf("s%d", i),
			Dist: stats.Gaussian{Mu: 2.5 * float64(i), Sigma: 1 + 0.2*float64(i)}}
	}
	var s stats.Scratch
	steps := []struct {
		name, note string
		fn         func() error
	}{
		{"stats.fitpca_us", "Scratch.FitPCA 72x150, k=1", func() error { _, err := s.FitPCA(rows, 1); return err }},
		{"stats.fitpca_slab_us", "Scratch.FitPCASlab 72x150, k=1", func() error {
			_, err := s.FitPCASlab(slab, profShapeN, profShapeD, 1)
			return err
		}},
		{"stats.binnedmi_us", "Scratch.BinnedMI 400 pairs, 16 bins", func() error { _, err := s.BinnedMI(xs, ys, binnedBins); return err }},
		{"stats.mutualinfo_us", "Scratch.MutualInformation 6 classes, 600 steps", func() error {
			_, err := s.MutualInformation(classes, miQuadrature)
			return err
		}},
	}
	for _, st := range steps {
		if err := run(st.name, 20, st.note, usf, st.fn); err != nil {
			return err
		}
	}
	return nil
}
