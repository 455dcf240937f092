package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"time"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/artifact"
	"github.com/repro/aegis/internal/fuzzer"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/profiler"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/workload"
)

// offline-campaign: aegis.New + Profile + Fuzz(Top(4)) per app, first on
// a fresh artifact store (cold) and then again on the same store (warm).
const (
	offlineSetups = 15
	// warmPasses is how many warm sweeps follow each cold one: a warm
	// sweep is short, so several are timed for a steady median.
	warmPasses         = 3
	offlineParallelism = 2
	offlineTop         = 4
	// Facade defaults the direct profiler/fuzzer run must reproduce
	// (aegis.New fills them in for a zero Config).
	facadeTraceTicks = 120
	facadeRepeats    = 8
	facadeCandidates = 600
)

// offlineApps returns the swept applications — website (the first 8
// sites), keystroke and dnn — in an order shuffled by the workload seed.
// The campaigns themselves are fixed: which events rank highest depends
// on the inputs, and at the default fuzz budget some rankings (keystroke
// under many framework seeds, some website site sets) confirm no gadget
// at all (aegis: gadget set is empty, a documented small-budget outcome).
// The workload must be one on which no operation fails, so the seed only
// changes the sweep order.
func offlineApps(seed uint64) []workload.App {
	apps := []workload.App{
		&workload.WebsiteApp{Sites: workload.Websites()[:8]},
		&workload.KeystrokeApp{},
		&workload.DNNApp{},
	}
	r := rng.NewStream(seed, "perfbench", "sweep-order")
	for i := len(apps) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		apps[i], apps[j] = apps[j], apps[i]
	}
	return apps
}

// storeDirs hands out fresh artifact-store directories inside the
// checkout and removes them all at the end of the run.
type storeDirs struct {
	root string
	n    int
}

func newStoreDirs() (*storeDirs, error) {
	root := filepath.Join(".bench_build", "perfbench-stores", strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	return &storeDirs{root: root}, nil
}

func (s *storeDirs) next() string {
	s.n++
	return filepath.Join(s.root, strconv.Itoa(s.n))
}

func (s *storeDirs) cleanup() { _ = os.RemoveAll(s.root) } // best effort: scratch data only

// facade builds the framework the offline workload sweeps with, seeded
// with planSeed (see offlineApps).
func facade(dir string) (*aegis.Framework, error) {
	return aegis.New(aegis.Config{Seed: planSeed, Parallelism: offlineParallelism, ArtifactDir: dir})
}

// campaign is the output of one app's profile + fuzz: the ranked events
// (name and MI at full precision) and the stacked segment.
type campaign struct {
	App     string
	Ranked  []string
	Segment []string
}

func rankedKeys(ranked []profiler.RankedEvent) []string {
	out := make([]string, len(ranked))
	for i, re := range ranked {
		out[i] = re.Event.Name + "=" + strconv.FormatFloat(re.MI, 'g', -1, 64)
	}
	return out
}

func segmentKeys(seg []isa.Variant) []string {
	out := make([]string, len(seg))
	for i, v := range seg {
		out[i] = v.Key()
	}
	return out
}

// sweep profiles and fuzzes every app once through the facade. It
// returns the campaigns that succeeded and how many failed.
func sweep(fw *aegis.Framework, apps []workload.App) ([]campaign, int) {
	var out []campaign
	failed := 0
	for _, app := range apps {
		p, err := fw.Profile(app)
		if err != nil {
			failed++
			continue
		}
		gs, err := fw.Fuzz(p.Top(offlineTop))
		if err != nil {
			failed++
			continue
		}
		out = append(out, campaign{App: app.Name(), Ranked: rankedKeys(p.Ranked), Segment: segmentKeys(gs.Segment())})
	}
	return out, failed
}

// timedSweep is one sweep with its wall time.
func timedSweep(fw *aegis.Framework, apps []workload.App) ([]campaign, int, time.Duration) {
	t0 := time.Now()
	c, failed := sweep(fw, apps)
	return c, failed, time.Since(t0)
}

func runOffline(o options, r *result) error {
	dirs, err := newStoreDirs()
	if err != nil {
		return err
	}
	defer dirs.cleanup()
	apps := offlineApps(o.seed)
	var setups []float64
	var fw *aegis.Framework
	for i := 0; i < offlineSetups; i++ {
		t0 := time.Now()
		fw, err = facade(dirs.next())
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	window := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var cold, warm []float64
	var ref []campaign
	failed, mismatches := 0, 0
	for round := 0; ; round++ {
		if round > 0 {
			// Start another cold+warm round only if it fits the window.
			perRound := time.Since(start) / time.Duration(round)
			if time.Since(start)+perRound > window {
				break
			}
			if fw, err = facade(dirs.next()); err != nil {
				return err
			}
		}
		c, fc, dc := timedSweep(fw, apps)
		failed += fc
		cold = append(cold, ms(dc))
		if ref == nil {
			ref = c
		} else if !reflect.DeepEqual(ref, c) {
			mismatches++
		}
		for i := 0; i < warmPasses; i++ {
			w, fwarm, dw := timedSweep(fw, apps)
			failed += fwarm
			warm = append(warm, ms(dw))
			if !reflect.DeepEqual(c, w) {
				mismatches++
			}
		}
	}
	r.check("offline.warm_equals_cold", mismatches == 0,
		fmt.Sprintf("%d pass(es) whose ranked events or segment differ from the first cold pass", mismatches))
	r.check("offline.campaigns_succeed", failed == 0, fmt.Sprintf("%d failed campaign(s)", failed))
	r.Attempted += int64((len(cold) + len(warm)) * len(apps))
	r.Failed += int64(failed)
	r.add(metric{Key: "setup_s", Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups),
		Note: "median aegis.New on a fresh artifact store"})
	r.add(metric{Key: "rate_per_s", Name: "campaigns_per_s", Value: float64(len(apps)) / (median(cold) / 1000),
		Unit: "1/s", N: len(cold), Note: "apps profiled + fuzzed per second, cold (median sweep)"})
	r.add(metric{Name: "resumes_per_s", Value: float64(len(apps)) / (median(warm) / 1000),
		Unit: "1/s", N: len(warm), Note: "apps re-profiled + re-fuzzed per second from a warm store"})
	r.add(metric{Name: "campaign_s", Value: median(cold) / 1000, Unit: "s", N: len(cold), Note: "median cold sweep"})
	r.add(metric{Name: "resume_s", Value: median(warm) / 1000, Unit: "s", N: len(warm), Note: "median warm sweep"})
	r.note("cold sweeps (ms): %.0f; warm sweeps (ms): %.0f", cold, warm)
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name()
	}
	r.note("%d cold sweep(s), each followed by %d warm sweeps, over %v at parallelism %d",
		len(cold), warmPasses, names, offlineParallelism)
	return nil
}

func tracedOffline(o options, r *result) error {
	tr := newTracer()
	layers, err := traceOfflineLayers(offlineApps(o.seed), tr, r, "offline-campaign")
	if err != nil {
		return err
	}
	return finishTraced(o, r, tr, layers, "offline-campaign")
}

// traceOfflineLayers runs a cold and a warm facade sweep on a fresh store
// (artifact funnel per pass), then the same campaigns by calling the
// profiler and fuzzer directly with the configuration the facade builds,
// timing each stage and checking the results match the facade's.
func traceOfflineLayers(apps []workload.App, tr *tracer, r *result, src string) (map[string]metric, error) {
	dirs, err := newStoreDirs()
	if err != nil {
		return nil, err
	}
	defer dirs.cleanup()
	fw, err := facade(dirs.next())
	if err != nil {
		return nil, err
	}
	s0 := artifact.GlobalStats()
	t0 := time.Now()
	cold, failedCold, _ := timedSweep(fw, apps)
	tr.add("offline.cold_sweep", 0, 0, t0, time.Now())
	s1 := artifact.GlobalStats()
	t1 := time.Now()
	warm, failedWarm, _ := timedSweep(fw, apps)
	tr.add("offline.warm_sweep", 0, 0, t1, time.Now())
	s2 := artifact.GlobalStats()
	r.check(src+".warm_equals_cold", failedCold == 0 && failedWarm == 0 && reflect.DeepEqual(cold, warm),
		fmt.Sprintf("%d cold / %d warm failed campaigns", failedCold, failedWarm))

	out := map[string]metric{}
	put := func(name string, v float64, n int, note string) {
		out[name] = metric{Key: name, Name: name, Value: v, N: n, Note: note}
	}
	warmLookups := (s2.Hits - s1.Hits) + (s2.Misses - s1.Misses)
	put("artifact.misses", float64(s1.Misses-s0.Misses), 1, "cold pass")
	put("artifact.writes", float64(s1.Writes-s0.Writes), 1, "cold pass")
	put("artifact.hits", float64(s2.Hits-s1.Hits), 1, "warm pass")
	put("artifact.corrupt", float64(s2.Corrupt-s0.Corrupt), 1, "both passes")
	put("artifact.warm_hit_ratio", float64(s2.Hits-s1.Hits)/float64(max(warmLookups, 1)), int(warmLookups), "warm hits / warm lookups")

	// Direct path, on its own fresh store so it is cold like the facade's
	// first pass.
	store, err := artifact.Open(dirs.next())
	if err != nil {
		return nil, err
	}
	clean := isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures())
	var warmup, rank, fuzz, cover time.Duration
	var tried, confirmed, kept, total int
	mismatch := 0
	for i, app := range apps {
		pcfg := profiler.DefaultConfig(planSeed)
		pcfg.TraceTicks = facadeTraceTicks
		pcfg.RankRepeats = facadeRepeats
		pcfg.Parallelism = offlineParallelism
		pcfg.Store = store
		p := profiler.New(fw.Catalog(), pcfg)
		a := time.Now()
		wres, err := p.Warmup(app)
		b := time.Now()
		if err != nil {
			return nil, err
		}
		ranked, err := p.Rank(app, wres.Remaining)
		c := time.Now()
		if err != nil {
			return nil, err
		}
		tr.add("profiler.warmup", 0, 0, a, b)
		tr.add("profiler.rank", 0, 0, b, c)
		warmup += b.Sub(a)
		rank += c.Sub(b)
		kept += len(wres.Remaining)
		total += wres.TotalEvents
		events := make([]*hpc.Event, 0, offlineTop)
		for j := 0; j < len(ranked) && j < offlineTop; j++ {
			events = append(events, ranked[j].Event)
		}
		fcfg := fuzzer.DefaultConfig(planSeed)
		fcfg.CandidatesPerEvent = facadeCandidates
		fcfg.Parallelism = offlineParallelism
		fcfg.Store = store
		fz, err := fuzzer.New(clean.Legal, fcfg)
		if err != nil {
			return nil, err
		}
		a = time.Now()
		res, err := fz.Fuzz(events)
		b = time.Now()
		if err != nil && res == nil {
			return nil, err
		}
		cov, err := fz.MinimalCover(res, events)
		c = time.Now()
		if err != nil {
			return nil, err
		}
		tr.add("fuzzer.fuzz", 0, 0, a, b)
		tr.add("fuzzer.cover", 0, 0, b, c)
		fuzz += b.Sub(a)
		cover += c.Sub(b)
		tried += res.CandidatesTried
		for _, f := range res.PerEvent {
			confirmed += len(f)
		}
		direct := campaign{App: app.Name(), Ranked: rankedKeys(ranked), Segment: segmentKeys(fuzzer.StackSegment(cov))}
		if i >= len(cold) || !reflect.DeepEqual(direct, cold[i]) {
			mismatch++
		}
	}
	if src == "offline-campaign" {
		r.note("trace overhead: none inside the pipeline; spans wrap whole sweeps and whole Warmup/Rank/Fuzz/MinimalCover calls")
	}
	r.check(src+".direct_matches_facade", mismatch == 0,
		fmt.Sprintf("%d of %d app(s) where direct profiler/fuzzer ranked list or segment differs from the facade", mismatch, len(apps)))
	n := len(apps)
	put("profiler.warmup_ms", ms(warmup), n, fmt.Sprintf("Warmup spans summed over %d app(s)", n))
	put("profiler.rank_ms", ms(rank), n, fmt.Sprintf("Rank spans summed over %d app(s)", n))
	put("profiler.keep_ratio", float64(kept)/float64(max(total, 1)), total, "warm-up survivors / catalog")
	put("fuzzer.fuzz_ms", ms(fuzz), n, fmt.Sprintf("Fuzz spans summed over %d app(s)", n))
	put("fuzzer.cover_ms", ms(cover), n, fmt.Sprintf("MinimalCover spans summed over %d app(s)", n))
	put("fuzzer.candidates_tried", float64(tried), n, "Result.CandidatesTried")
	put("fuzzer.confirm_ratio", float64(confirmed)/float64(max(tried, 1)), tried, "confirmed findings / candidates tried")
	return out, nil
}
