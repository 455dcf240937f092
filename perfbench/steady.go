package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/attack"
	"github.com/repro/aegis/internal/daemon"
)

// daemon-steady: a closed loop calling Step back to back on an
// aegisd-style daemon protecting a d* fleet.
const (
	steadyTenants     = 32
	steadyParallelism = 2
	steadySetups      = 3  // set-ups per run; setup_s is their median
	replayPrefix      = 16 // ticks of the serial-replay output check
	// memSteps is the Step count at which peak RSS is read. LoadPerTick 1
	// hands each tenant's guest runner one job per tick, more than the
	// runner retires, so its job backlog and the heap grow with every
	// tick; reading the peak at a fixed tick keeps mem_mb from rising
	// merely because a faster Step fits more ticks into the window.
	memSteps         = 1000
	aegisdCandidates = 400
	// planSeed fuzzes the shared protection plan (aegisd's default
	// -seed). The plan is deployment configuration, not workload input:
	// the workload seed drives the daemon's per-tenant streams (jobs,
	// noise, fault schedules) and the control traffic, so runs with
	// different seeds do comparable work.
	planSeed = 1
)

// appRotation is the tenant application mix: tenant i runs
// appRotation[i%3].
var appRotation = []string{"website", "keystroke", "dnn"}

func tenantName(i int) string { return fmt.Sprintf("t%03d", i) }

// steadyPlan fuzzes the shared protection plan for the paper's four
// monitored events, as `aegisd -events` does.
func steadyPlan() (*aegis.GadgetSet, error) {
	fw, err := aegis.New(aegis.Config{Seed: planSeed, FuzzCandidates: aegisdCandidates})
	if err != nil {
		return nil, err
	}
	defer fw.Close()
	return fw.Fuzz(attack.DefaultEventNames())
}

func steadyConfig(gs *aegis.GadgetSet, seed uint64, parallelism int) daemon.Config {
	return daemon.Config{
		Segment:     gs.Segment(),
		RefEvent:    gs.RefEvent(),
		Mechanism:   daemon.MechanismDStar,
		Parallelism: parallelism,
		LoadPerTick: 1,
		Seed:        seed,
	}
}

// attachFleet attaches n tenants rotating through appRotation and returns
// each Attach call's span (also recorded as a "daemon.attach" span).
func attachFleet(d *daemon.Daemon, n int, tr *tracer) ([]interval, error) {
	spans := make([]interval, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := d.Attach(daemon.AttachSpec{Name: tenantName(i), App: appRotation[i%len(appRotation)]})
		t1 := time.Now()
		tr.add("daemon.attach", 0, 0, t0, t1)
		if err != nil {
			return nil, err
		}
		spans = append(spans, interval{t0, t1})
	}
	return spans, nil
}

// steadyEnv is one set-up daemon-steady deployment.
type steadyEnv struct {
	gs       *aegis.GadgetSet
	d        *daemon.Daemon
	tenants  int
	attach   []interval
	replayOK bool
	replay   string
}

// setupSteady fuzzes the plan, builds the parallel daemon (seeded with the
// workload seed), attaches the
// fleet, and checks a short prefix against a serial replay of the same
// seed: journal, Status and every TenantStatus must be byte-identical.
func setupSteady(seed uint64, tr *tracer) (*steadyEnv, error) {
	tenants := steadyTenants
	gs, err := steadyPlan()
	if err != nil {
		return nil, err
	}
	d, err := daemon.New(steadyConfig(gs, seed, steadyParallelism))
	if err != nil {
		return nil, err
	}
	attach, err := attachFleet(d, tenants, tr)
	if err != nil {
		return nil, err
	}
	d.Run(replayPrefix)
	serial, err := daemon.New(steadyConfig(gs, seed, 1))
	if err != nil {
		return nil, err
	}
	if _, err := attachFleet(serial, tenants, nil); err != nil {
		return nil, err
	}
	serial.Run(replayPrefix)
	ok, detail, err := sameDaemonOutput(d, serial)
	if err != nil {
		return nil, err
	}
	return &steadyEnv{gs: gs, d: d, tenants: tenants, attach: attach, replayOK: ok, replay: detail}, nil
}

// sameDaemonOutput compares the journals, daemon Status and tenant
// statuses of two daemons byte for byte.
func sameDaemonOutput(a, b *daemon.Daemon) (bool, string, error) {
	views := []struct {
		name string
		get  func(d *daemon.Daemon) any
	}{
		{"journal", func(d *daemon.Daemon) any { return d.Journal().Snapshot() }},
		{"status", func(d *daemon.Daemon) any { return d.Status() }},
		{"tenants", func(d *daemon.Daemon) any { return d.Statuses() }},
	}
	for _, v := range views {
		ja, err := json.Marshal(v.get(a))
		if err != nil {
			return false, "", err
		}
		jb, err := json.Marshal(v.get(b))
		if err != nil {
			return false, "", err
		}
		if !bytes.Equal(ja, jb) {
			return false, v.name + " differs from the serial replay", nil
		}
	}
	return true, fmt.Sprintf("journal, status and %d tenant statuses identical after %d ticks", a.Status().Tenants, replayPrefix), nil
}

// setupSteadyTimed runs the set-up n times and returns the last
// deployment with the set-up durations in seconds.
func setupSteadyTimed(seed uint64, n int, tr *tracer) (*steadyEnv, []float64, error) {
	var env *steadyEnv
	var secs []float64
	for i := 0; i < n; i++ {
		var err error
		t0 := time.Now()
		// Spans are kept for the last set-up only: it is the one measured.
		str := (*tracer)(nil)
		if i == n-1 {
			str = tr
		}
		env, err = setupSteady(seed, str)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return env, secs, nil
}

// stepFor calls Step back to back until the window ends, returning each
// call's span.
func stepFor(d *daemon.Daemon, window time.Duration, tr *tracer, after func()) []interval {
	var steps []interval
	end := time.Now().Add(window)
	for {
		t0 := time.Now()
		if !t0.Before(end) {
			return steps
		}
		d.Step()
		t1 := time.Now()
		steps = append(steps, interval{t0, t1})
		tr.add("daemon.step", 0, 0, t0, t1)
		if after != nil {
			after()
		}
	}
}

func durationsMs(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		out[i] = ms(iv.dur())
	}
	return out
}

// checkFunnels checks enqueued == processed + shed + depth for every
// tenant and returns the fleet's shed jobs and degraded tenant ticks.
func checkFunnels(r *result, d *daemon.Daemon) (shed, degraded int64) {
	bad := 0
	for _, t := range d.Statuses() {
		if t.Enqueued != t.Processed+t.Shed+int64(t.QueueDepth) {
			bad++
		}
		shed += t.Shed
		degraded += t.DegradedTicks
	}
	r.check("daemon.funnel_reconciles", bad == 0,
		fmt.Sprintf("%d tenant(s) with enqueued != processed + shed + depth", bad))
	return shed, degraded
}

func runSteady(o options, r *result) error {
	env, setups, err := setupSteadyTimed(o.seed, steadySetups, nil)
	if err != nil {
		return err
	}
	r.check("steady.serial_replay", env.replayOK, env.replay)
	mem, memAt := math.NaN(), 0
	calls := 0
	readMem := func() {
		if calls++; calls == memSteps {
			mem, memAt = peakRSSMB(), calls
		}
	}
	cpu0 := cpuTime()
	start := time.Now()
	steps := stepFor(env.d, time.Duration(o.seconds)*time.Second, nil, readMem)
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	if memAt == 0 {
		mem, memAt = peakRSSMB(), calls
	}
	stepMs := durationsMs(steps)
	tenantTicks := len(steps) * env.tenants
	shed, degraded := checkFunnels(r, env.d)
	// Degraded ticks are protection outcomes (e.g. a d* clip fallback),
	// not failed operations; they are reported in the notes.
	r.Attempted += int64(tenantTicks)
	r.Failed += shed

	rate := float64(tenantTicks) / elapsed.Seconds()
	p99 := tailPercentile(stepMs, 99)
	r.add(metric{Key: "setup_s", Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups),
		Note: "median set-up: fuzz plan, attach fleet, serial-replay check"})
	r.add(metric{Key: "rate_per_s", Name: "tenant_ticks_per_s", Value: rate, Unit: "1/s", N: len(steps)})
	r.add(metric{Name: "step_p50_ms", Value: median(stepMs), Unit: "ms", N: len(stepMs)})
	r.add(metric{Name: "cpu_us_per_tenant_tick", Value: us(cpu) / float64(tenantTicks), Unit: "us", N: tenantTicks,
		Note: "process CPU time (all threads, GC included) per tenant tick"})
	r.add(metric{Name: "step_p99_ms", Value: p99.Value, Unit: "ms", N: len(stepMs), Note: tailNote(p99)})
	r.add(metric{Name: "step_mean_ms", Value: mean(stepMs), Unit: "ms", N: len(stepMs)})
	r.add(metric{Key: "mem_mb", Name: "mem_mb", Value: mem, Unit: "MB", N: 1, Note: fmt.Sprintf("peak RSS after Step %d", memAt)})
	r.add(metric{Name: "mem_end_mb", Value: peakRSSMB(), Unit: "MB", N: 1, Note: "peak RSS at the end of the window"})
	r.note("%d tenants (d*, parallelism %d, load 1 job/tenant/tick), %d Step calls in %.2fs; shed %d, degraded tenant ticks %d",
		env.tenants, steadyParallelism, len(steps), elapsed.Seconds(), shed, degraded)
	return nil
}

func tailNote(t tail) string {
	if !t.OK {
		return "max (fewer than 11 samples)"
	}
	return fmt.Sprintf("p%.1f (>=%d samples beyond)", t.Pct, minBeyond)
}

// tracedSteady is the traced daemon-steady run: a short untraced window
// for the overhead comparison, then a traced window in which every Step
// is a span and three replica tenants (one per app) are stepped beside
// the daemon with timing wrappers around their runner and obfuscator.
func tracedSteady(o options, r *result) error {
	tr := newTracer()
	layers, err := traceSteadyLayers(o.seed, time.Duration(o.seconds)*time.Second, tr, r, true)
	if err != nil {
		return err
	}
	return finishTraced(o, r, tr, layers, "daemon-steady")
}

// traceSteadyLayers measures the steady-path layers on the full fleet.
// full selects the workload's own run (three set-ups, an untraced window
// for the overhead comparison); census runs for other workloads' traced
// runs set up once and trace a shorter window.
func traceSteadyLayers(seed uint64, window time.Duration, tr *tracer, r *result, full bool) (map[string]metric, error) {
	tenants := steadyTenants
	src, setupsN := "daemon-steady", steadySetups
	if !full {
		src, setupsN = "census:daemon-steady", 1
	}
	env, setups, err := setupSteadyTimed(seed, setupsN, tr)
	if err != nil {
		return nil, err
	}
	r.check(src+".serial_replay", env.replayOK, env.replay)
	out := map[string]metric{}
	put := func(name string, v float64, n int, note string) {
		out[name] = metric{Key: name, Name: name, Value: v, N: n, Note: note}
	}

	var untraced []float64
	if full {
		// Untraced window first: same process, same daemon, no spans and
		// no replicas, so the traced Step can be compared against it.
		untraced = durationsMs(stepFor(env.d, window/4, nil, nil))
		window -= window / 4
	}
	reps, err := newReplicas(seed, env, tr)
	if err != nil {
		return nil, err
	}
	steps := stepFor(env.d, window, tr, reps.step)
	if reps.err != nil {
		return nil, reps.err
	}
	stepMs := durationsMs(steps)
	if full {
		r.note("trace overhead: traced Step p50 %.4g ms vs untraced %.4g ms in the same process (%+.1f%%; replicas step outside the Step span)",
			median(stepMs), median(untraced), 100*(median(stepMs)/median(untraced)-1))
		r.add(metric{Name: "setup_s (traced run)", Value: median(setups), Unit: "s", N: len(setups)})
	}
	for _, rp := range reps.all {
		st, err := env.d.TenantStatus(rp.name)
		if err != nil {
			return nil, err
		}
		rep := rp.obf.Report()
		r.check(fmt.Sprintf("%s.replica_%s_protection", src, rp.app), reflect.DeepEqual(rep, st.Protection),
			fmt.Sprintf("replica %s vs daemon TenantStatus.Protection after %d ticks", rp.name, rep.Ticks))
	}
	attach := durationsMs(env.attach)
	put("daemon.attach_ms", median(attach), len(attach), "median Attach span (last set-up)")
	put("daemon.step_ms", median(stepMs), len(stepMs), "median Step span")

	// Replica layers, weighted by how many fleet tenants run each app.
	mix := reps.mix(tenants)
	put("sev.step_us", mix.world, reps.ticks(), "mean replica World.Step per tenant tick")
	put("sev.self_us", mix.sevSelf, reps.ticks(), "World.Step minus its process wrappers")
	put("workload.runner_us", mix.runner, reps.ticks(), "mean runner Step per tenant tick")
	put("workload.job_us", mix.job, reps.ticks(), "mean App.Job per tenant tick")
	put("workload.guest_instr_per_tick", mix.guestInstr, reps.ticks(), "GuestExecutor.Used delta of the runner")
	put("obfuscator.tick_us", mix.obf, reps.ticks(), "mean obfuscator Step per tenant tick")
	put("obfuscator.injected_instr_per_tick", mix.injInstr, reps.ticks(), "GuestExecutor.Used delta of the obfuscator")
	put("obfuscator.inject_share", mix.injInstr/(mix.injInstr+mix.guestInstr), reps.ticks(), "injected / (guest + injected)")
	put("microarch.ns_per_instr", 1000*(mix.runner+mix.obf)/(mix.guestInstr+mix.injInstr), reps.ticks(), "(runner + obfuscator time) / simulated instructions")

	// Daemon self time: Step worker time minus the fleet's tenant work.
	workers := steadyParallelism
	if g := runtime.GOMAXPROCS(0); g < workers {
		workers = g
	}
	if workers > tenants {
		workers = tenants
	}
	stepWorkerUs := 1000 * mean(stepMs) * float64(workers)
	tenantUs := float64(tenants) * (mix.world + mix.job)
	put("daemon.self_us_per_tenant_tick", (stepWorkerUs-tenantUs)/float64(tenants), len(stepMs),
		fmt.Sprintf("(Step mean x %d workers - tenant work) / %d tenants", workers, tenants))
	tickTable(r, src, stepWorkerUs, tenants, mix)
	return out, nil
}

// tickTable prints where a protected tick goes: the shares of Step worker
// time spent in daemon self time, sev self time, the workload runner (and
// job synthesis) and the obfuscator.
func tickTable(r *result, src string, stepWorkerUs float64, tenants int, mix replicaMix) {
	n := float64(tenants)
	rows := []struct {
		name string
		us   float64
	}{
		{"workload runner + job", n * (mix.runner + mix.job)},
		{"obfuscator", n * mix.obf},
		{"sev self", n * mix.sevSelf},
	}
	rest := stepWorkerUs
	r.note("[%s] where a protected tick goes (share of Step worker time %.1f us, %d tenants):", src, stepWorkerUs, tenants)
	for _, row := range rows {
		rest -= row.us
		r.note("  %-24s %10.1f us  %5.1f%%", row.name, row.us, 100*row.us/stepWorkerUs)
	}
	r.note("  %-24s %10.1f us  %5.1f%%", "daemon self", rest, 100*rest/stepWorkerUs)
}
