package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/ops"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/workload"
)

// daemon-control: an open loop of control-API requests against a daemon
// running at aegisd defaults (serial Step, Laplace, 50 ms wall-clock tick
// pacing, light substrate faults).
const (
	controlTenants = 12
	controlSetups  = 3
	ctlRate        = 200 // requests per second
	ctlConns       = 2   // keep-alive loopback connections
	tickInterval   = 50 * time.Millisecond
	// ctlLimit is the control-API latency limit: one tick interval, the
	// longest a request can reasonably wait for the tick holding the
	// daemon mutex.
	ctlLimit = tickInterval
)

// controlEnv is one set-up daemon-control deployment.
type controlEnv struct {
	d    *daemon.Daemon
	srv  *ops.Server
	addr string
}

func (e *controlEnv) close() {
	if e != nil && e.srv != nil {
		_ = e.srv.Close() // the listener is loopback-only and the run is over
	}
}

// setupControl builds the daemon the way aegisd does with its defaults:
// profile the website app (4 secrets), fuzz the top 4 events, attach the
// fleet, and serve the control API on a loopback port. The plan comes
// from planSeed; the daemon and its fault schedules from the workload
// seed.
func setupControl(seed uint64, tenants int) (*controlEnv, error) {
	planFaults, err := faultinject.Preset(faultinject.PresetLight, planSeed)
	if err != nil {
		return nil, err
	}
	faults, err := faultinject.Preset(faultinject.PresetLight, seed)
	if err != nil {
		return nil, err
	}
	fw, err := aegis.New(aegis.Config{Seed: planSeed, FuzzCandidates: aegisdCandidates, Faults: planFaults})
	if err != nil {
		return nil, err
	}
	defer fw.Close()
	profile, err := fw.Profile(&workload.WebsiteApp{Sites: workload.Websites()[:daemonSecrets]})
	if err != nil {
		return nil, err
	}
	gs, err := fw.Fuzz(profile.Top(4))
	if err != nil {
		return nil, err
	}
	d, err := daemon.New(daemon.Config{
		Segment:   gs.Segment(),
		RefEvent:  gs.RefEvent(),
		Mechanism: daemon.MechanismLaplace,
		Epsilon:   1,
		Seed:      seed,
		Faults:    faults,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < tenants; i++ {
		if err := d.Attach(daemon.AttachSpec{Name: tenantName(i), App: "website", Secrets: daemonSecrets}); err != nil {
			return nil, err
		}
	}
	srv := ops.NewServer(ops.Config{Addr: "127.0.0.1:0", Recorder: d.Journal()})
	srv.RegisterReadiness(d.ReadyProbe())
	srv.RegisterHealth(d.HealthProbe())
	srv.Mount(daemon.CtlPrefix, "ctl", d.CtlHandler())
	addr, err := srv.Start()
	if err != nil {
		return nil, err
	}
	return &controlEnv{d: d, srv: srv, addr: addr}, nil
}

// setupControlTimed runs n set-ups and keeps the last one running.
func setupControlTimed(seed uint64, tenants, n int) (*controlEnv, []float64, error) {
	var env *controlEnv
	var secs []float64
	for i := 0; i < n; i++ {
		env.close()
		t0 := time.Now()
		var err error
		env, err = setupControl(seed, tenants)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return env, secs, nil
}

// ctlReq is one planned control request.
type ctlReq struct {
	id     int64
	due    time.Duration // offset from the start of the window
	op     string        // submit | tenant | attach | detach | reload | daemon
	method string
	path   string
	body   []byte
	tenant string
	jobs   int
}

// ctlOutcome is what happened to one request.
type ctlOutcome struct {
	send, end time.Time
	status    int
	accepted  int
	err       error
}

func (o ctlOutcome) ok() bool { return o.err == nil && o.status >= 200 && o.status < 300 }

// trafficBlock is the request mix of every block of 100 consecutive
// requests; the order inside a block is shuffled by the workload seed.
// Fixing the counts keeps rare expensive operations (reloads, churn) at
// the same rate on every seed.
var trafficBlock = []struct {
	op string
	n  int
}{{"submit", 85}, {"tenant", 10}, {"churn", 4}, {"reload", 1}}

// planTraffic builds the seeded request mix for a window: 85% submits of
// 1–4 jobs to a random fleet tenant, 10% tenant reads, 4% attach /
// graceful-detach churn on separate churn tenants, 1% reloads
// alternating ε so every tenant replans. Submits and reads only target
// fleet tenants, which are never detached, so no request can race a
// detach on the other connection.
func planTraffic(seed uint64, tenants int, window time.Duration) []ctlReq {
	r := rng.NewStream(seed, "perfbench", "control-traffic")
	var block []string
	for _, b := range trafficBlock {
		for i := 0; i < b.n; i++ {
			block = append(block, b.op)
		}
	}
	n := int(window.Seconds() * ctlRate)
	reqs := make([]ctlReq, 0, n)
	churn, reloads := 0, 0
	for i := 0; i < n; i++ {
		if i%len(block) == 0 {
			for j := len(block) - 1; j > 0; j-- {
				k := r.Intn(j + 1)
				block[j], block[k] = block[k], block[j]
			}
		}
		q := ctlReq{id: int64(i + 1), due: time.Duration(i) * time.Second / ctlRate}
		switch block[i%len(block)] {
		case "submit":
			q.op, q.method, q.path = "submit", http.MethodPost, daemon.CtlPrefix+"submit"
			q.tenant, q.jobs = tenantName(r.Intn(tenants)), 1+r.Intn(4)
			q.body = mustJSON(map[string]any{"name": q.tenant, "jobs": q.jobs})
		case "tenant":
			q.op, q.method = "tenant", http.MethodGet
			q.tenant = tenantName(r.Intn(tenants))
			q.path = daemon.CtlPrefix + "tenant?name=" + q.tenant
		case "churn":
			// Churn op m attaches c<m/2> (even m) or detaches the churn
			// tenant attached two churn ops earlier (odd m).
			m := churn
			churn++
			if m%2 == 0 {
				q.op, q.method, q.path = "attach", http.MethodPost, daemon.CtlPrefix+"attach"
				q.body = mustJSON(daemon.AttachSpec{Name: churnName(m / 2), App: "website", Secrets: daemonSecrets})
			} else if k := (m-1)/2 - 2; k >= 0 {
				q.op, q.method, q.path = "detach", http.MethodPost, daemon.CtlPrefix+"detach"
				q.body = mustJSON(map[string]any{"name": churnName(k)})
			} else {
				q.op, q.method, q.path = "daemon", http.MethodGet, daemon.CtlPrefix+"daemon"
			}
		default:
			eps := 0.5
			if reloads%2 == 1 {
				eps = 1
			}
			reloads++
			q.op, q.method, q.path = "reload", http.MethodPost, daemon.CtlPrefix+"reload"
			q.body = mustJSON(daemon.Tunables{Epsilon: &eps})
		}
		reqs = append(reqs, q)
	}
	return reqs
}

func churnName(k int) string { return fmt.Sprintf("c%04d", k) }

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed, marshalable request shapes reach here
	}
	return raw
}

// controlRun is the record of one open-loop window.
type controlRun struct {
	start    time.Time
	reqs     []ctlReq
	outcomes []ctlOutcome
	steps    []interval
	late     []time.Duration // Step start minus its scheduled time
	replan   []bool          // a reload was pending when the Step began
	elapsed  time.Duration   // measured length of the window
	// statusCost is the time the traced tick loop spent asking Status
	// whether a reload is pending: the traced run's only in-window work.
	statusCost time.Duration
}

// driveControl runs the tick loop and the open-loop generator for one
// window and waits for both to finish. With traced set, the tick loop
// asks Status whether a reload is pending before each Step, so the Steps
// that replan can be told apart.
func driveControl(env *controlEnv, reqs []ctlReq, window time.Duration, traced bool) *controlRun {
	run := &controlRun{reqs: reqs, outcomes: make([]ctlOutcome, len(reqs))}
	stop := make(chan struct{})
	tickDone := make(chan struct{})
	run.start = time.Now().Add(5 * time.Millisecond)

	go func() {
		defer close(tickDone)
		timer := time.NewTimer(time.Until(run.start))
		defer timer.Stop()
		for k := 0; ; k++ {
			due := run.start.Add(time.Duration(k) * tickInterval)
			timer.Reset(time.Until(due))
			select {
			case <-stop:
				return
			case <-timer.C:
			}
			pending := false
			if traced {
				s0 := time.Now()
				pending = env.d.Status().PendingReload
				run.statusCost += time.Since(s0)
			}
			t0 := time.Now()
			env.d.Step()
			run.steps = append(run.steps, interval{t0, time.Now()})
			run.late = append(run.late, t0.Sub(due))
			run.replan = append(run.replan, pending)
		}
	}()

	var next atomic.Int64
	var wg sync.WaitGroup
	base := "http://" + env.addr
	wg.Add(ctlConns)
	for c := 0; c < ctlConns; c++ {
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				q := reqs[i]
				if wait := time.Until(run.start.Add(q.due)); wait > 0 {
					time.Sleep(wait)
				}
				run.outcomes[i] = send(client, base, q)
			}
		}()
	}
	wg.Wait()
	// Keep ticking to the end of the window even if the generator
	// finished early, then stop the tick loop and wait for it.
	if rest := time.Until(run.start.Add(window)); rest > 0 {
		time.Sleep(rest)
	}
	close(stop)
	<-tickDone
	run.elapsed = time.Since(run.start)
	return run
}

// send performs one control request on a keep-alive connection.
func send(client *http.Client, base string, q ctlReq) ctlOutcome {
	var body io.Reader
	if q.body != nil {
		body = bytes.NewReader(q.body)
	}
	out := ctlOutcome{send: time.Now()}
	req, err := http.NewRequest(q.method, base+q.path, body)
	if err != nil {
		out.err, out.end = err, time.Now()
		return out
	}
	resp, err := client.Do(req)
	if err != nil {
		out.err, out.end = err, time.Now()
		return out
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.end = time.Now()
	out.status = resp.StatusCode
	if err != nil {
		out.err = err
		return out
	}
	var cr daemon.CtlResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		out.err = fmt.Errorf("decode %s response: %w", q.op, err)
		return out
	}
	out.accepted = cr.Accepted
	return out
}

// verifyControl checks the daemon's books against what the clients saw:
// every job a submit response accepted is enqueued on its tenant, and
// every tenant's funnel reconciles. Non-2xx responses, transport errors
// and shed jobs count as failed operations, mismatches as failed checks.
func verifyControl(r *result, env *controlEnv, run *controlRun, tenants int, src string) {
	accepted := map[string]int64{}
	var bad int64
	for i, o := range run.outcomes {
		if !o.ok() {
			bad++
			continue
		}
		if run.reqs[i].op == "submit" {
			accepted[run.reqs[i].tenant] += int64(o.accepted)
		}
	}
	mismatch := 0
	for i := 0; i < tenants; i++ {
		st, err := env.d.TenantStatus(tenantName(i))
		if err != nil || st.Enqueued != accepted[tenantName(i)] {
			mismatch++
		}
	}
	r.check(src+".accepted_equals_enqueued", mismatch == 0,
		fmt.Sprintf("%d fleet tenant(s) whose enqueued total differs from the jobs the API accepted", mismatch))
	shed, _ := checkFunnels(r, env.d)
	r.check(src+".responses_2xx", bad == 0, fmt.Sprintf("%d of %d requests failed or were refused", bad, len(run.outcomes)))
	r.Attempted += int64(len(run.outcomes))
	r.Failed += bad + shed
}

func runControl(o options, r *result) error {
	env, setups, err := setupControlTimed(o.seed, controlTenants, controlSetups)
	if err != nil {
		return err
	}
	defer env.close()
	window := time.Duration(o.seconds) * time.Second
	run := driveControl(env, planTraffic(o.seed, controlTenants, window), window, false)
	verifyControl(r, env, run, controlTenants, "control")

	lat := make([]time.Duration, len(run.outcomes))
	var sendLate []float64
	within := 0
	for i, oc := range run.outcomes {
		due := run.start.Add(run.reqs[i].due)
		lat[i] = dueLatency(due, oc.end, oc.ok())
		sendLate = append(sendLate, ms(oc.send.Sub(due)))
		if oc.ok() && lat[i] <= ctlLimit {
			within++
		}
	}
	latMs := latencyMs(lat)
	p99 := tailPercentile(latMs, 99)
	lateMs := make([]float64, len(run.late))
	for i, d := range run.late {
		lateMs[i] = ms(d)
	}
	lateTail := tailPercentile(lateMs, 99)
	genTail := tailPercentile(sendLate, 99)
	r.add(metric{Key: "setup_s", Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups),
		Note: "median set-up: profile, fuzz, attach fleet, start ops server"})
	r.add(metric{Key: "rate_per_s", Name: "ctl_within_limit_per_s", Value: float64(within) / run.elapsed.Seconds(), Unit: "1/s",
		N: len(latMs), Note: fmt.Sprintf("2xx responses within %v of their due time", ctlLimit)})
	// Only the goodput is keyed: the latencies and the Step time follow
	// the host's speed phases (see README.md), which on a shared 2-CPU
	// host move them further between runs than any bound can allow.
	stepMs := durationsMs(run.steps)
	r.add(metric{Name: "ctl_step_p50_ms", Value: median(stepMs), Unit: "ms", N: len(stepMs),
		Note: "median paced serial Step under control traffic"})
	r.add(metric{Name: "ctl_p50_ms", Value: median(latMs), Unit: "ms", N: len(latMs), Note: "from due time"})
	r.add(metric{Name: "ctl_p99_ms", Value: p99.Value, Unit: "ms", N: len(latMs), Note: tailNote(p99) + ", from due time"})
	r.add(metric{Name: "tick_late_p99_ms", Value: lateTail.Value, Unit: "ms", N: len(lateMs), Note: tailNote(lateTail)})
	r.add(metric{Name: "loadgen_late_p50_ms", Value: median(sendLate), Unit: "ms", N: len(sendLate), Note: "send time minus due time"})
	r.add(metric{Name: "loadgen_late_p99_ms", Value: genTail.Value, Unit: "ms", N: len(sendLate), Note: tailNote(genTail)})
	r.note("%d tenants (laplace, serial, light faults, %v ticks), %d requests at %d/s over %d connections; %d/%d within the %v limit",
		controlTenants, tickInterval, len(run.reqs), ctlRate, ctlConns, within, len(latMs), ctlLimit)
	return nil
}

func tracedControl(o options, r *result) error {
	tr := newTracer()
	layers, err := traceControlLayers(o.seed, controlTenants, controlSetups, time.Duration(o.seconds)*time.Second, tr, r, "daemon-control")
	if err != nil {
		return err
	}
	return finishTraced(o, r, tr, layers, "daemon-control")
}

// traceControlLayers runs one traced open-loop window and derives the
// control-path layers: how much of each request overlapped a Step (lock
// wait), the round trip of requests that overlapped none, and the Steps
// that applied a reload.
func traceControlLayers(seed uint64, tenants, setups int, window time.Duration, tr *tracer, r *result, src string) (map[string]metric, error) {
	env, _, err := setupControlTimed(seed, tenants, setups)
	if err != nil {
		return nil, err
	}
	defer env.close()
	run := driveControl(env, planTraffic(seed, tenants, window), window, true)
	verifyControl(r, env, run, tenants, src)
	if src == "daemon-control" {
		r.note("trace overhead: %d Status calls before Steps took %.3f ms (%.4f%% of the window); spans are built from timestamps after the window",
			len(run.steps), ms(run.statusCost), 100*run.statusCost.Seconds()/run.elapsed.Seconds())
	}
	for i, s := range run.steps {
		tr.add("daemon.step", 0, 0, s.Start, s.End)
		if run.replan[i] {
			tr.add("daemon.replan_step", 0, 0, s.Start, s.End)
		}
	}
	steps := union(run.steps)
	var wait, self []float64
	jobs := 0
	for i, oc := range run.outcomes {
		q := run.reqs[i]
		iv := interval{oc.send, oc.end}
		tr.add("ctl."+q.op, 0, q.id, oc.send, oc.end)
		if q.op == "submit" {
			jobs += q.jobs
		}
		w := overlap(iv, steps)
		wait = append(wait, ms(w))
		if w == 0 {
			self = append(self, ms(iv.dur()))
		}
	}
	var replan []float64
	for i, s := range run.steps {
		if run.replan[i] {
			replan = append(replan, ms(s.dur()))
		}
	}
	// Degraded ticks come from the tenant's all-time count; retries only
	// from the current plan's Protection report (a replan starts a new one).
	var ticks, degraded, planTicks, retries int64
	for _, st := range env.d.Statuses() {
		ticks += st.Ticks
		degraded += st.DegradedTicks
		planTicks += st.Protection.Ticks
		retries += st.Protection.Retries
	}
	st := env.d.Status()
	out := map[string]metric{}
	put := func(name string, v float64, n int, note string) {
		out[name] = metric{Key: name, Name: name, Value: v, N: n, Note: note}
	}
	waitTail := tailPercentile(wait, 99)
	// Most requests overlap no Step, so the median wait is 0; the mean
	// is reported in its place.
	put("daemon.ctl_lock_wait_mean_ms", mean(wait), len(wait), "mean request time overlapping a Step span")
	put("daemon.ctl_lock_wait_p99_ms", waitTail.Value, len(wait), tailNote(waitTail))
	put("daemon.ctl_self_ms", median(self), len(self), "round trip of requests overlapping no Step")
	put("daemon.replan_ms", median(replan), len(replan), "Step spans that applied a reload")
	put("daemon.shed_ratio", float64(st.Shed)/float64(max(jobs, 1)), jobs, "Status shed / submitted jobs")
	put("obfuscator.degraded_ratio", float64(degraded)/float64(max(ticks, 1)), int(ticks), "TenantStatus degraded ticks / ticks (light faults)")
	put("obfuscator.retries_per_tick", float64(retries)/float64(max(planTicks, 1)), int(planTicks), "TenantStatus.Protection retries / ticks, current plans")
	if src == "daemon-control" {
		put("daemon.step_ms", median(durationsMs(run.steps)), len(run.steps), "median Step span (paced, serial)")
	}
	return out, nil
}
