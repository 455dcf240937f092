package main

import (
	"fmt"
	"time"

	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/workload"
)

// Daemon defaults a replica tenant must match (daemon.New fills them in
// when the config leaves them zero, as aegisd and this benchmark do).
const (
	daemonTickBudget  = 2000
	daemonVMMemory    = 64 << 10
	daemonSensitivity = 1500
	daemonClipBound   = 20000
	daemonSecrets     = 4
)

// timedProc wraps a sev.Process and times each Step from outside,
// counting the simulated instructions it retired via GuestExecutor.Used.
type timedProc struct {
	p     sev.Process
	ran   bool
	last  interval
	instr int
}

func (w *timedProc) Name() string { return w.p.Name() }

func (w *timedProc) Step(g *sev.GuestExecutor) {
	u0 := g.Used()
	t0 := time.Now()
	w.p.Step(g)
	w.last = interval{t0, time.Now()}
	w.instr = g.Used() - u0
	w.ran = true
}

// replica is a tenant built with the same public constructors and seeds
// daemon.Attach uses for a steady-state d* tenant, stepped beside the
// daemon so the work inside daemon.Step can be timed from outside.
type replica struct {
	name, app string
	appImpl   workload.App
	secrets   []string
	jobRng    *rng.Source
	seq       int
	world     *sev.World
	runner    *workload.Runner
	obf       *obfuscator.Obfuscator
	wRunner   *timedProc
	wObf      *timedProc
	tr        *tracer

	// Sums over recorded ticks.
	ticks                               int
	worldT, sevSelf, runnerT, obfT, job time.Duration
	guestInstr, injInstr                int64
}

// newReplica mirrors daemon.Attach (plan generation 0, no faults) for
// tenant name running app.
func newReplica(seed uint64, name, app string, env *steadyEnv, tr *tracer) (*replica, error) {
	appImpl, err := buildApp(app)
	if err != nil {
		return nil, err
	}
	seeds := rng.NewStream(seed, "daemon", name)
	world := sev.NewWorld(sev.Config{
		Processor:     "AMD EPYC 7252",
		PhysicalCores: 1,
		Core:          microarch.DefaultCoreConfig(),
		TickBudget:    daemonTickBudget,
		Seed:          seeds.Uint64(),
	})
	vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true, MemoryBytes: daemonVMMemory})
	if err != nil {
		return nil, err
	}
	runner := workload.NewRunner(name+"-app", workload.DefaultLibrary(seeds.Uint64()), seeds.Split("runner"))
	mech, err := obfuscator.NewDStarMechanism(1, daemonSensitivity,
		rng.NewStream(seed, "daemon", name, "mech").SplitN("gen", 0))
	if err != nil {
		return nil, err
	}
	obf, err := obfuscator.New(obfuscator.Config{
		Mechanism: mech,
		Segment:   env.gs.Segment(),
		RefEvent:  env.gs.RefEvent(),
		ClipBound: daemonClipBound,
		Seed:      rng.NewStream(seed, "daemon", name, "plan").SplitN("gen", 0).Uint64(),
	})
	if err != nil {
		return nil, err
	}
	rp := &replica{
		name: name, app: app, appImpl: appImpl, secrets: appImpl.Secrets(),
		jobRng: seeds.Split("jobs"), world: world, runner: runner, obf: obf,
		wRunner: &timedProc{p: runner}, wObf: &timedProc{p: obf}, tr: tr,
	}
	if err := vm.AddProcess(0, rp.wRunner); err != nil {
		return nil, err
	}
	if err := vm.AddProcess(0, rp.wObf); err != nil {
		return nil, err
	}
	return rp, nil
}

// buildApp builds an app the way daemon.Attach does for the default
// secret alphabet.
func buildApp(name string) (workload.App, error) {
	switch name {
	case "website":
		return &workload.WebsiteApp{Sites: workload.Websites()[:daemonSecrets]}, nil
	case "keystroke":
		return &workload.KeystrokeApp{MaxKeys: daemonSecrets}, nil
	case "dnn":
		return &workload.DNNApp{}, nil
	}
	return nil, fmt.Errorf("unknown app %q", name)
}

// tick mirrors one daemon tenant tick at load 1: enqueue one job for the
// next secret in rotation, hand it to the runner, step the world. When
// record is set the tick's timings are accumulated and traced.
func (rp *replica) tick(record bool) error {
	t0 := time.Now()
	job, err := rp.appImpl.Job(rp.secrets[rp.seq%len(rp.secrets)], rp.jobRng)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("replica %s: %w", rp.name, err)
	}
	rp.seq++
	rp.runner.Enqueue(job)
	rp.wRunner.ran, rp.wObf.ran = false, false
	rp.world.Step()
	t2 := time.Now()
	if !record {
		return nil
	}
	world := interval{t1, t2}
	var children []interval
	rp.ticks++
	rp.job += t1.Sub(t0)
	rp.worldT += world.dur()
	tickID := rp.tr.add("replica.tick", 0, 0, t0, t2)
	rp.tr.add("workload.job", tickID, 0, t0, t1)
	worldID := rp.tr.add("sev.world_step", tickID, 0, t1, t2)
	if rp.wRunner.ran {
		children = append(children, rp.wRunner.last)
		rp.runnerT += rp.wRunner.last.dur()
		rp.guestInstr += int64(rp.wRunner.instr)
		rp.tr.add("workload.runner", worldID, 0, rp.wRunner.last.Start, rp.wRunner.last.End)
	}
	if rp.wObf.ran {
		children = append(children, rp.wObf.last)
		rp.obfT += rp.wObf.last.dur()
		rp.injInstr += int64(rp.wObf.instr)
		rp.tr.add("obfuscator.tick", worldID, 0, rp.wObf.last.Start, rp.wObf.last.End)
	}
	rp.sevSelf += selfTime(world, children)
	return nil
}

// replicaSet is one replica per app in the rotation.
type replicaSet struct {
	all []*replica
	err error
}

// newReplicas builds one replica per app (tenants t000, t001, t002 of the
// rotation) and steps them up to the daemon's current tick.
func newReplicas(seed uint64, env *steadyEnv, tr *tracer) (*replicaSet, error) {
	rs := &replicaSet{}
	for i, app := range appRotation {
		if i >= env.tenants {
			break
		}
		rp, err := newReplica(seed, tenantName(i), app, env, tr)
		if err != nil {
			return nil, err
		}
		for t := env.d.Tick(); t > 0; t-- {
			if err := rp.tick(false); err != nil {
				return nil, err
			}
		}
		rs.all = append(rs.all, rp)
	}
	return rs, nil
}

// step advances every replica by one recorded tick (called after each
// daemon Step, outside its span).
func (rs *replicaSet) step() {
	for _, rp := range rs.all {
		if err := rp.tick(true); err != nil && rs.err == nil {
			rs.err = err
		}
	}
}

func (rs *replicaSet) ticks() int {
	n := 0
	for _, rp := range rs.all {
		n += rp.ticks
	}
	return n
}

// replicaMix is the mean per-tenant-tick cost of a fleet tenant, in µs
// (instructions for the instr fields), weighting each app's replica by
// the number of fleet tenants running that app.
type replicaMix struct {
	world, sevSelf, runner, obf, job float64
	guestInstr, injInstr             float64
}

func (rs *replicaSet) mix(tenants int) replicaMix {
	var m replicaMix
	total := 0.0
	for i, rp := range rs.all {
		if rp.ticks == 0 {
			continue
		}
		// Tenants i, i+3, i+6, ... run this replica's app.
		w := float64((tenants - i + len(appRotation) - 1) / len(appRotation))
		per := func(d time.Duration) float64 { return w * us(d) / float64(rp.ticks) }
		m.world += per(rp.worldT)
		m.sevSelf += per(rp.sevSelf)
		m.runner += per(rp.runnerT)
		m.obf += per(rp.obfT)
		m.job += per(rp.job)
		m.guestInstr += w * float64(rp.guestInstr) / float64(rp.ticks)
		m.injInstr += w * float64(rp.injInstr) / float64(rp.ticks)
		total += w
	}
	if total == 0 {
		return m
	}
	m.world /= total
	m.sevSelf /= total
	m.runner /= total
	m.obf /= total
	m.job /= total
	m.guestInstr /= total
	m.injInstr /= total
	return m
}
