package proptest

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/faultinject"
)

func newHarness(t testing.TB) *Harness {
	t.Helper()
	h, err := NewHarness(1)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestPropertyHarness drives 108 seeded fault schedules through full
// Protect/ProtectMulti deployments. Every schedule is checked against the
// harness invariants; every ninth is re-run to assert byte-identical
// artifacts for identical (seed, schedule, parallelism).
func TestPropertyHarness(t *testing.T) {
	h := newHarness(t)
	schedules := Schedules(108, 1000)
	if len(schedules) < 100 {
		t.Fatalf("only %d schedules", len(schedules))
	}
	presets := map[string]int{}
	for i, s := range schedules {
		a, err := h.Run(s)
		if err != nil {
			t.Fatalf("schedule %v: %v", s, err)
		}
		if err := Check(s, a); err != nil {
			t.Error(err)
		}
		presets[s.Preset]++
		if i%9 == 0 {
			b, err := h.Run(s)
			if err != nil {
				t.Fatalf("schedule %v replay: %v", s, err)
			}
			if a.Fingerprint() != b.Fingerprint() {
				t.Errorf("schedule %v not replayable:\n%s\n%s", s, a.Fingerprint(), b.Fingerprint())
			}
		}
	}
	for _, p := range []string{faultinject.PresetOff, faultinject.PresetLight, faultinject.PresetHeavy} {
		if presets[p] == 0 {
			t.Errorf("no schedule exercised preset %q", p)
		}
	}
}

// TestCleanMultiGolden pins the multi-event deployment on a healthy
// substrate: for every fault-free schedule of the property harness, the
// total segment executions and each plan's injected counts (hex floats,
// so the comparison is bit-exact) must match the recorded golden.
// Regenerate with AEGIS_UPDATE_GOLDEN=1 only for an intended change to
// the healthy multi-event tick.
func TestCleanMultiGolden(t *testing.T) {
	h := newHarness(t)
	var b strings.Builder
	for _, s := range Schedules(108, 1000) {
		if s.Preset != faultinject.PresetOff {
			continue
		}
		a, err := h.Run(s)
		if err != nil {
			t.Fatalf("schedule %v: %v", s, err)
		}
		fmt.Fprintf(&b, "%v reps=%d counts=%x\n", s, a.MultiReps, a.MultiCounts)
	}
	got := b.String()
	golden := filepath.Join("testdata", "clean_multi.golden")
	if os.Getenv("AEGIS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with AEGIS_UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("clean multi-event deployment drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestParallelismInvariance re-runs one faulted schedule (including the
// offline fuzzing stage) at parallelism 1, 4 and GOMAXPROCS; the fault
// streams are label-derived, so the artifacts and the fuzzed gadget set
// must be identical at every width.
func TestParallelismInvariance(t *testing.T) {
	type shape struct {
		cover, segment, tried int
		fingerprint           string
	}
	run := func(par int) shape {
		faults, err := faultinject.Preset(faultinject.PresetLight, 5)
		if err != nil {
			t.Fatal(err)
		}
		fw, err := aegis.New(aegis.Config{
			Seed: 5, FuzzCandidates: 150, Parallelism: par, Faults: faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		gs, err := fw.Fuzz(EventNames)
		if err != nil {
			t.Fatal(err)
		}
		h := &Harness{gs: gs}
		s := Schedule{Seed: 5, Preset: faultinject.PresetHeavy, Ticks: 80, Parallelism: par}
		a, err := h.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(s, a); err != nil {
			t.Error(err)
		}
		return shape{gs.CoverSize, gs.SegmentLen, gs.GadgetsTried, a.Fingerprint()}
	}
	base := run(1)
	for _, par := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := run(par); got != base {
			t.Errorf("parallelism %d diverged:\n%+v\n%+v", par, got, base)
		}
	}
}

// FuzzTickUnderFaults is a native fuzz target: arbitrary (seed, preset,
// ticks) triples must satisfy the harness invariants and never panic.
func FuzzTickUnderFaults(f *testing.F) {
	h := newHarness(f)
	f.Add(uint64(1), byte(0), uint8(40))
	f.Add(uint64(99), byte(1), uint8(80))
	f.Add(uint64(7), byte(2), uint8(120))
	// Healthy 122-tick run whose multi-event plan hits the d* clip
	// fallback without any fault.
	f.Add(uint64(99), byte(0), uint8(112))
	presets := []string{faultinject.PresetOff, faultinject.PresetLight, faultinject.PresetHeavy}
	f.Fuzz(func(t *testing.T, seed uint64, preset byte, ticks uint8) {
		s := Schedule{
			Seed:        seed,
			Preset:      presets[int(preset)%len(presets)],
			Ticks:       int(ticks%120) + 10,
			Parallelism: 1,
		}
		a, err := h.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(s, a); err != nil {
			t.Error(err)
		}
	})
}
